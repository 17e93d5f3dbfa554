(* Per-layer attribution for the traced pass.

   Compiler layers come from the spans and counters [Qcr_obs.Obs]
   already records: a layer's time is the self time of its spans (a
   span's duration minus its child spans), and a span without a layer of
   its own (e.g. [swapnet.realize] under [pipeline.ata_materialize])
   counts toward its nearest ancestor's layer.  Self time left on the
   pipeline's wrapper spans is reported as [pipeline.unattributed.ms].

   Service-side layers are timed here, around direct calls into each
   layer's public functions, in this process. *)

module Obs = Qcr_obs.Obs
module Json = Qcr_obs.Json
module Protocol = Qcr_service.Protocol
module Request = Qcr_service.Compile_request
module Reply = Qcr_service.Compile_reply
module Service = Qcr_service.Service
module Session = Qcr_net.Session
module Jobs = Qcr_net.Jobs
module Journal = Qcr_net.Journal

let now = Unix.gettimeofday

let layer_of_span = function
  | "pipeline.placement" | "pipeline.placement_selection" -> Some "placement"
  | "pipeline.greedy" | "pipeline.greedy_replay" -> Some "greedy"
  | "pipeline.checkpoint_predict" -> Some "predict"
  | "pipeline.ata_materialize" -> Some "materialize"
  | "pipeline.finalize" -> Some "finalize"
  | _ -> None

let compiler_layers = [ "placement"; "greedy"; "predict"; "materialize"; "finalize" ]

(* Self milliseconds per compiler layer, plus ["pipeline"] (total
   [pipeline.run] time) and ["unattributed"]. *)
let self_times (spans : Obs.span list) =
  let spans =
    List.stable_sort
      (fun (a : Obs.span) (b : Obs.span) ->
        match compare a.Obs.span_start b.Obs.span_start with
        | 0 -> compare a.Obs.span_depth b.Obs.span_depth
        | c -> c)
      spans
  in
  let totals = Hashtbl.create 8 in
  let add k v = Hashtbl.replace totals k (v +. Option.value ~default:0.0 (Hashtbl.find_opt totals k)) in
  (* stack entries: depth, layer, duration, child time (mutable) *)
  let finished = ref [] in
  let stack = ref [] in
  let pop () =
    match !stack with
    | (_, layer, dur, child) :: rest ->
        stack := rest;
        finished := (layer, dur -. !child) :: !finished
    | [] -> ()
  in
  List.iter
    (fun (s : Obs.span) ->
      let rec unwind () =
        match !stack with
        | (d, _, _, _) :: _ when d >= s.Obs.span_depth ->
            pop ();
            unwind ()
        | _ -> ()
      in
      unwind ();
      let parent_layer =
        match !stack with
        | (_, layer, _, child) :: _ ->
            child := !child +. s.Obs.span_dur;
            layer
        | [] -> None
      in
      let layer =
        match layer_of_span s.Obs.span_name with Some l -> Some l | None -> parent_layer
      in
      if s.Obs.span_name = "pipeline.run" then add "pipeline" s.Obs.span_dur;
      stack := (s.Obs.span_depth, layer, s.Obs.span_dur, ref 0.0) :: !stack)
    spans;
  while !stack <> [] do
    pop ()
  done;
  List.iter
    (fun (layer, self) -> add (Option.value ~default:"unattributed" layer) self)
    !finished;
  fun k -> 1000.0 *. Option.value ~default:0.0 (Hashtbl.find_opt totals k)

(* Mean microseconds per item of [f] over [items], timed as one loop. *)
let mean_us f items =
  let t0 = now () in
  Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
  1e6 *. (now () -. t0) /. float_of_int (max 1 (Array.length items))

let decode line =
  match Json.of_string line with
  | Ok j -> Protocol.decode_json j
  | Error e -> Error (Protocol.Malformed e)

let reply_json = function
  | Session.Reply j -> j
  | Session.Wait_for id -> failwith ("in-process wait parked on " ^ id)

(* The in-process service-side measurements: codec, service, session,
   job table and journal, each timed around its public entry points. *)
let service_side ~scratch ~(w : Workload.t) =
  let lines = Array.map (fun i -> Workload.compile_line w.Workload.requests.(i)) w.Workload.stream in
  let reqs = Array.map (fun i -> w.Workload.requests.(i)) w.Workload.stream in
  let decode_us = mean_us decode lines in
  let validate_us = mean_us Request.validate reqs in
  let key_us = mean_us Request.cache_key reqs in
  let service = Service.create () in
  let hit_s = ref 0.0 and hits = ref 0 and miss_s = ref 0.0 and misses = ref 0 in
  let replies =
    Array.map
      (fun r ->
        let t0 = now () in
        let reply = Service.submit service r in
        let dt = now () -. t0 in
        if reply.Reply.cached then begin
          hit_s := !hit_s +. dt;
          incr hits
        end
        else begin
          miss_s := !miss_s +. dt;
          incr misses
        end;
        reply)
      reqs
  in
  let encode_us = mean_us (fun r -> Json.to_string (Reply.to_json r)) replies in
  let stats = Service.stats service in
  let session = Session.create ~service ~jobs:(Jobs.create ~submit:(Service.submit service) ()) () in
  (* per-line median, the statistic of the wire's warm_ms_p50: the
     service is warm, so every line is a hit *)
  let op_us =
    let times =
      Array.map
        (fun line ->
          let t0 = now () in
          ignore (Sys.opaque_identity (Session.handle session ~client:1 line));
          now () -. t0)
        lines
    in
    Array.sort compare times;
    1e6 *. times.(Array.length times / 2)
  in
  let burst = Array.map (fun i -> w.Workload.requests.(i)) w.Workload.burst in
  let open_journal name =
    match Journal.open_dir (Filename.concat scratch name) with
    | Ok j -> j
    | Error e -> failwith ("journal: " ^ e)
  in
  (* the journaled job path: submit, run, wait — as the server does it *)
  let journal = open_journal "jobs-journal" in
  let jobs = Jobs.create ~max_queue:1024 ~journal ~submit:(Service.submit service) () in
  let jsession = Session.create ~service ~jobs () in
  let job_errors = ref 0 in
  let jobs_us =
    mean_us
      (fun submit ->
        let ack = reply_json (Session.handle jsession ~client:1 submit) in
        match Json.member "job" ack with
        | Some (Json.Str id) ->
            ignore (Jobs.run_next jobs);
            let wait = Json.to_string (Protocol.encode (Protocol.Op.Wait id)) in
            let st = reply_json (Session.handle jsession ~client:1 wait) in
            if Json.member "state" st <> Some (Json.Str "done") then incr job_errors
        | _ -> incr job_errors)
      (Array.mapi (fun k r -> Workload.submit_line ~idem:(Workload.idem ~round:0 k) r) burst)
  in
  Journal.close journal;
  (* bare journal appends: one admission and one outcome per job *)
  let journal = open_journal "append-journal" in
  let append_errors = ref 0 in
  let cached = Array.map (Service.submit service) burst in
  let t0 = now () in
  Array.iteri
    (fun k r ->
      let seq = k + 1 in
      (match Journal.admit journal ~seq ~idem:(Workload.idem ~round:0 k) r with
      | Ok () -> ()
      | Error _ -> incr append_errors);
      match Journal.outcome journal ~seq ~state:"done" cached.(k) with
      | Ok () -> ()
      | Error _ -> incr append_errors)
    burst;
  let append_us = 1e6 *. (now () -. t0) /. float_of_int (max 1 (Journal.appends journal)) in
  let appends = Journal.appends journal and journal_kb = float_of_int (Journal.bytes journal) /. 1024.0 in
  Journal.close journal;
  let errors = !job_errors + !append_errors in
  ( errors,
    [
      ("codec.decode_us", decode_us, "us");
      ("codec.key_us", key_us, "us");
      ("service.validate_us", validate_us, "us");
      ("codec.encode_us", encode_us, "us");
      ("service.hit_us", 1e6 *. !hit_s /. float_of_int (max 1 !hits), "us");
      ("service.miss_ms", 1e3 *. !miss_s /. float_of_int (max 1 !misses), "ms");
      ("service.hits", float_of_int stats.Service.cache_hits, "count");
      ("service.misses", float_of_int stats.Service.cache_misses, "count");
      ("session.op_us", op_us, "us");
      ("jobs.op_us", jobs_us, "us");
      ("journal.append_us", append_us, "us");
      ("journal.appends", float_of_int appends, "count");
      ("journal.kb", journal_kb, "kB");
    ] )
