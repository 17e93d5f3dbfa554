(* End-to-end benchmark of the compiler and its server.

   One run drives one workload (see workload.ml) through both paths a
   user sees: the library ([Pipeline.run], in this process, on one
   domain) and the service ([qcr serve --listen], a child process, over
   TCP).

     1. set-up: generate the requests and build the devices (three
        times), then one warm-up library pass that fills the lazy
        schedule caches;
     2. cycles, until [--seconds] have passed (at least [min_cycles]):
        - one untraced library pass, [Gc.full_major] before and after
          it;
        - a fresh server (empty journal and cache directories), timed
          until its first reply;
        - the sync stream, closed loop on one connection: first
          occurrences miss the server's cache, repeats hit;
        - one async burst: [submit] with idempotency keys, then [wait],
          so each job costs two journal appends beside a cache read;
        - a SIGTERM drain of the server.
        A fresh server per cycle gives every cycle the same cold misses,
        so cold latency and the stream's rate get one sample per cycle;
     3. with [--trace 1]: one traced library pass and the in-process
        layer timings (layers.ml).

   Every output is checked by check.ml; any violated check makes the run
   print [correct: false] and exit 1.  The last stdout line is the
   result object; [--emit-requests] prints the run's wire lines instead. *)

module Arch = Qcr_arch.Arch
module Noise = Qcr_arch.Noise
module Program = Qcr_circuit.Program
module Circuit = Qcr_circuit.Circuit
module Pipeline = Qcr_core.Pipeline
module Checker = Qcr_core.Checker
module Request = Qcr_service.Compile_request
module Reply = Qcr_service.Compile_reply
module Protocol = Qcr_service.Protocol
module Client = Qcr_net.Client
module Json = Qcr_obs.Json
module Obs = Qcr_obs.Obs

let now = Unix.gettimeofday

(* Set-up repeats (median kept) and the least number of cycles. *)
let setups = 3
let min_cycles = 3

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* ---------- operation accounting ---------- *)

type tally = { mutable attempted : int; mutable failed : int }

let kinds = [ "library_compile"; "sync_op"; "async_job"; "check" ]
let tallies = List.map (fun k -> (k, { attempted = 0; failed = 0 })) kinds
let tally k = List.assoc k tallies

let count kind ok =
  let t = tally kind in
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let violations = ref []

(* One check: counted, and its violations kept for the report. *)
let check what = function
  | [] -> count "check" true
  | vs ->
      count "check" false;
      violations := List.map (fun v -> what ^ ": " ^ v) vs @ !violations

(* ---------- the library path ---------- *)

type target = { request : Request.t; arch : Arch.t; program : Program.t; pipeline : Pipeline.Request.t }

let realize (r : Request.t) =
  let arch = Request.arch_of r in
  let program = Request.program_of r in
  let pipeline =
    Pipeline.Request.make ~id:r.Request.id ~config:(Request.config_of r)
      ?noise:(Request.noise_of r arch) ~mode:(Request.pipeline_mode ~astar_budget:30_000 r)
      arch program
  in
  { request = r; arch; program; pipeline }

(* One pass: every distinct request compiled once.  Returns the results,
   the wall time, and the words allocated and major collections run
   during the pass. *)
let library_pass targets =
  Gc.full_major ();
  let minor0, promoted0, major0 = Gc.counters () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  let results = Array.map (fun t -> Pipeline.run t.pipeline) targets in
  let wall = now () -. t0 in
  let minor1, promoted1, major1 = Gc.counters () in
  let gc = (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0), (Gc.quick_stat ()).Gc.major_collections - majors0) in
  let results =
    Array.map
      (function
        | Ok r ->
            count "library_compile" true;
            Some r
        | Error _ ->
            count "library_compile" false;
            None)
      results
  in
  (results, wall, gc)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* ---------- the wire path ---------- *)

let parse line =
  match Json.of_string line with Ok j -> j | Error e -> failwith ("unparsable reply: " ^ e)

let str_field k j = match Json.member k j with Some (Json.Str s) -> s | _ -> ""

(* One pass over the sync stream; returns per-op latencies (seconds),
   the raw replies and the stream's wall time. *)
let sync_round client lines =
  let n = Array.length lines in
  let lat = Array.make n 0.0 and replies = Array.make n "" in
  let t0 = now () in
  for i = 0 to n - 1 do
    let s = now () in
    Client.send_line client lines.(i);
    (match Client.recv_line ~timeout_s:120.0 client with
    | Ok l -> replies.(i) <- l
    | Error e -> failwith ("sync op: " ^ e));
    lat.(i) <- now () -. s
  done;
  (lat, replies, now () -. t0)

(* One async burst: all submits in one write, all waits in one write.
   Returns the job-state replies by burst position and the wall time
   from the first submit to the last terminal reply. *)
let async_round client ~submit_lines =
  let n = Array.length submit_lines in
  let recv () =
    match Client.recv_line ~timeout_s:120.0 client with
    | Ok l -> parse l
    | Error e -> failwith ("async op: " ^ e)
  in
  let t0 = now () in
  Client.send_line client (String.concat "\n" (Array.to_list submit_lines));
  let ids = Array.init n (fun _ -> str_field "job" (recv ())) in
  let pos = Hashtbl.create n in
  Array.iteri (fun k id -> Hashtbl.replace pos id k) ids;
  Client.send_line client
    (String.concat "\n"
       (Array.to_list (Array.map (fun id -> Json.to_string (Protocol.encode (Protocol.Op.Wait id))) ids)));
  let out = Array.make n Json.Null in
  for _ = 1 to n do
    let j = recv () in
    match Hashtbl.find_opt pos (str_field "job" j) with Some k -> out.(k) <- j | None -> ()
  done;
  (out, now () -. t0)

(* ---------- one run ---------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;
  emit : bool;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let cli = ref "" and emit = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workload.names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long the measured cycles run");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--cli", Arg.Set_string cli, "PATH the qcr_cli executable");
      ("--emit-requests", Arg.Set emit, " print the workload's wire lines and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH";
  if not (List.mem !workload Workload.names) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " Workload.names);
    exit 2
  end;
  if (not !emit) && not (Sys.file_exists !cli) then begin
    prerr_endline "perfbench: --cli must name the built qcr_cli executable";
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; cli = !cli; emit = !emit }

let emit_requests (w : Workload.t) =
  Array.iter (fun i -> print_endline (Workload.compile_line w.Workload.requests.(i))) w.Workload.stream;
  Array.iteri
    (fun k i -> print_endline (Workload.submit_line ~idem:(Workload.idem ~round:1 k) w.Workload.requests.(i)))
    w.Workload.burst

let metric name value unit = (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ])

(* Results of one run, for the report. *)
let summary = Buffer.create 256

let run args scratch =
  let server_dir = Filename.concat scratch "server" in
  (* 1. set-up: inputs and devices [setups] times (median kept), then the
     warm-up pass; the server start is timed in every cycle below *)
  let generate () =
    let t0 = now () in
    let w = Workload.generate ~name:args.workload ~seed:args.seed in
    let targets = Array.map realize w.Workload.requests in
    (now () -. t0, w, targets)
  in
  let generated = List.init setups (fun _ -> generate ()) in
  let _, w, targets = List.hd generated in
  let warm, warm_s, _ = library_pass targets in
  let expected = Array.map (Option.map Reply.metrics_of_result) warm in
  let results =
    List.filter_map Fun.id (Array.to_list (Array.mapi (fun i r -> Option.map (fun r -> (targets.(i), r)) r) warm))
  in
  List.iter
    (fun (t, r) -> check t.request.Request.id (Check.result ~arch:t.arch ~program:t.program r))
    results;
  let sum f = List.fold_left (fun a (t, r) -> a +. f t r) 0.0 results in
  let depth_sum = sum (fun _ r -> float_of_int r.Pipeline.depth) in
  let cx_sum = sum (fun _ r -> float_of_int r.Pipeline.cx) in
  (* the expected-fidelity cost the pipeline maximises (paper 5.3) *)
  let neg_log_fid_sum =
    sum (fun t r ->
        match t.request.Request.noise_seed with
        | None -> 0.0
        | Some _ ->
            -.(r.Pipeline.log_fidelity
              +. Noise.decoherence_log_fidelity ~depth:r.Pipeline.depth
                   ~qubits:(Program.qubit_count t.program)))
  in
  let kgates = sum (fun _ r -> float_of_int (Circuit.gate_count r.Pipeline.circuit)) /. 1000.0 in
  let same_as_warm_up what results =
    Array.iteri
      (fun i r ->
        match (r, expected.(i)) with
        | Some r, Some e ->
            check targets.(i).request.Request.id
              (if Reply.metrics_of_result r = e then [] else [ what ^ " differs from the warm-up pass" ])
        | _ -> ())
      results
  in
  let lines = Array.map (fun i -> Workload.compile_line w.Workload.requests.(i)) w.Workload.stream in
  let first =
    let seen = Array.make (Array.length targets) false in
    Array.map
      (fun i ->
        let f = not seen.(i) in
        seen.(i) <- true;
        f)
      w.Workload.stream
  in
  let server = ref None in
  let stop_server () =
    Option.iter
      (fun s ->
        server := None;
        check "server drain" (if Child.stop s then [] else [ "server did not exit 0 after SIGTERM" ]))
      !server
  in
  let start_server () =
    let t0 = now () in
    let s = Child.start ~cli:args.cli ~dir:server_dir in
    server := Some s;
    (now () -. t0, s)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter (fun s -> ignore (Child.stop s)) !server)
    (fun () ->
      let passes = ref [] and starts = ref [] and rps = ref [] and rates = ref [] in
      let cold_p50 = ref [] and warm_p50 = ref [] and warm_p99 = ref [] in
      let gc = ref (0.0, 0) in
      let cycles = ref 0 and t_end = now () +. args.seconds in
      while !cycles < min_cycles || now () < t_end do
        incr cycles;
        (* 2. a cycle: one library pass, *)
        let results, wall, pass_gc = library_pass targets in
        gc := pass_gc;
        passes := wall :: !passes;
        same_as_warm_up "library pass" results;
        (* collect the pass's circuits before the wire phase, so the
           client's own GC work does not scale with them *)
        Gc.full_major ();
        (* the sync stream against a fresh server: first occurrences miss *)
        let start_s, s = start_server () in
        starts := start_s :: !starts;
        let lat, replies, wall = sync_round s.Child.client lines in
        rps := (float_of_int (Array.length lines) /. wall) :: !rps;
        let cold = ref [] and warm = ref [] in
        Array.iteri
          (fun k line ->
            let j = parse line in
            let ok = str_field "status" j = "ok" in
            count "sync_op" ok;
            (match expected.(w.Workload.stream.(k)) with
            | Some e when ok ->
                check
                  (Printf.sprintf "sync op %d of cycle %d" k !cycles)
                  (Check.reply ~expect:e ~cached:(not first.(k)) j)
            | _ -> ());
            if first.(k) then cold := lat.(k) :: !cold else warm := lat.(k) :: !warm)
          replies;
        cold_p50 := median !cold :: !cold_p50;
        warm_p50 := median !warm :: !warm_p50;
        warm_p99 := percentile 0.99 !warm :: !warm_p99;
        (* one async burst of cached requests against the journaled server *)
        let submit_lines =
          Array.mapi
            (fun k i -> Workload.submit_line ~idem:(Workload.idem ~round:!cycles k) w.Workload.requests.(i))
            w.Workload.burst
        in
        let states, wall = async_round s.Child.client ~submit_lines in
        rates := (float_of_int (Array.length submit_lines) /. wall) :: !rates;
        Array.iteri
          (fun k j ->
            let ok = str_field "state" j = "done" in
            count "async_job" ok;
            match (expected.(w.Workload.burst.(k)), Json.member "reply" j) with
            | Some e, Some reply when ok ->
                check
                  (Printf.sprintf "async job %d of cycle %d" k !cycles)
                  (Check.reply ~expect:e ~cached:true reply)
            | _ -> ())
          states;
        stop_server ()
      done;
      let peak_rss_mb = vm_hwm_mb () in
      let compile_s = median !passes in
      let inputs_s = median (List.map (fun (t, _, _) -> t) generated) in
      let setup_s = inputs_s +. median !starts +. warm_s in
      let times l = String.concat "/" (List.map (Printf.sprintf "%.3f") (List.rev l)) in
      Printf.bprintf summary
        "%s seed %d: %d cycles | setup %.3fs = inputs %.3f + server %.3f + warm-up %.3f | passes %s | warm p50 %.1f us | req/s %s | jobs/s %s"
        args.workload args.seed !cycles setup_s
        inputs_s (median !starts) warm_s (times !passes) (1e6 *. median !warm_p50)
        (String.concat "/" (List.map (Printf.sprintf "%.0f") (List.rev !rps)))
        (String.concat "/" (List.map (Printf.sprintf "%.0f") (List.rev !rates)));
      if not args.trace then
        [
          metric "setup_s" setup_s "s";
          metric "compile_s" compile_s "s";
          metric "depth_sum" depth_sum "count";
          metric "cx_sum" cx_sum "count";
          metric "neg_log_fid_sum" neg_log_fid_sum "nats";
          metric "peak_rss_mb" peak_rss_mb "MB";
          metric "cold_ms_p50" (1000.0 *. median !cold_p50) "ms";
          metric "warm_ms_p50" (1000.0 *. median !warm_p50) "ms";
          metric "warm_ms_p99" (1000.0 *. median !warm_p99) "ms";
          metric "req_per_s" (median !rps) "1/s";
          metric "async_jobs_per_s" (median !rates) "1/s";
        ]
      else begin
        (* 3. the traced pass and the in-process layer timings *)
        Obs.reset ();
        Obs.enable ();
        let traced, traced_s, _ = library_pass targets in
        Obs.disable ();
        let self = Layers.self_times (Obs.spans ()) in
        let counters = (Obs.snapshot ()).Obs.snap_counters in
        Obs.reset ();
        same_as_warm_up "traced pass" traced;
        let counter k = float_of_int (Option.value ~default:0 (List.assoc_opt k counters)) in
        let certify_t0 = now () in
        Array.iteri
          (fun i r ->
            let t = targets.(i) in
            Option.iter
              (fun r ->
                check ("certify " ^ t.request.Request.id)
                  (match Checker.certify ~arch:t.arch ~program:t.program r with
                  | Ok () -> []
                  | Error vs -> vs))
              r)
          traced;
        let certify_ms = 1000.0 *. (now () -. certify_t0) in
        let side_errors, side = Layers.service_side ~scratch ~w in
        check "in-process job path"
          (if side_errors = 0 then [] else [ Printf.sprintf "%d job or journal errors" side_errors ]);
        let _, s = start_server () in
        let health = Json.to_string (Json.Obj [ ("v", Json.Num 2.0); ("op", Json.Str "health") ]) in
        let rtts =
          List.init 500 (fun _ ->
              let t0 = now () in
              Client.send_line s.Child.client health;
              (match Client.recv_line ~timeout_s:30.0 s.Child.client with
              | Ok _ -> ()
              | Error e -> failwith ("health: " ^ e));
              now () -. t0)
        in
        stop_server ();
        let covered = List.fold_left (fun a l -> a +. self l) 0.0 Layers.compiler_layers in
        Printf.bprintf summary " | compiler layers cover %.1f%% of traced pipeline.run"
          (100.0 *. covered /. self "pipeline");
        [
          metric "placement.ms" (self "placement") "ms";
          metric "placement.candidates" (counter "pipeline.placements_tried") "count";
          metric "greedy.ms" (self "greedy") "ms";
          metric "greedy.cycles" (counter "greedy.cycles") "count";
          metric "greedy.swaps" (counter "greedy.swaps_committed") "count";
          metric "predict.ms" (self "predict") "ms";
          metric "predict.checkpoints" (counter "pipeline.checkpoints_recorded") "count";
          metric "materialize.ms" (self "materialize") "ms";
          metric "swapnet.swaps" (counter "swapnet.swaps_inserted") "count";
          metric "finalize.ms" (self "finalize") "ms";
          metric "pipeline.ms" (self "pipeline") "ms";
          metric "pipeline.unattributed.ms" (self "unattributed") "ms";
          metric "output.kgates" kgates "count";
          metric "alloc.mwords" (fst !gc /. 1e6) "count";
          metric "gc.major" (float_of_int (snd !gc)) "count";
          metric "certify.ms" certify_ms "ms";
        ]
        @ List.map (fun (n, v, u) -> metric n v u) side
        @ [
            metric "net.rtt_us" (1e6 *. median rtts) "us";
            metric "trace.overhead_s" (traced_s -. compile_s) "s";
          ]
      end)

let () =
  let args = parse_args () in
  if args.emit then emit_requests (Workload.generate ~name:args.workload ~seed:args.seed)
  else begin
    Qcr_par.Pool.set_default_domains 1;
    let scratch =
      Filename.concat (Sys.getcwd ()) (Printf.sprintf ".perfbench_tmp/%d" (Unix.getpid ()))
    in
    let metrics =
      Fun.protect
        ~finally:(fun () ->
          Child.rm_rf scratch;
          try Unix.rmdir (Filename.dirname scratch) with Unix.Unix_error _ -> ())
        (fun () ->
          Child.mkdir_p scratch;
          run args scratch)
    in
    prerr_endline ("perfbench " ^ Buffer.contents summary);
    List.iter (fun v -> prerr_endline ("VIOLATION " ^ v)) (List.rev !violations);
    let attempted = List.fold_left (fun a (_, t) -> a + t.attempted) 0 tallies in
    let failed = List.fold_left (fun a (_, t) -> a + t.failed) 0 tallies in
    print_endline
      (Json.to_string
         (Json.Obj
            (List.map
               (fun (k, t) ->
                 (k, Json.Obj [ ("attempted", Json.Num (float_of_int t.attempted)); ("failed", Json.Num (float_of_int t.failed)) ]))
               tallies)));
    let correct = !violations = [] in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool correct);
              ("attempted", Json.Num (float_of_int attempted));
              ("failed", Json.Num (float_of_int failed));
              ("metrics", Json.Obj metrics);
            ]));
    if not correct then exit 1
  end
