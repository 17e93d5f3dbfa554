(* Output checks made apart from the compiler.

   [result] re-derives everything a compile result claims from its
   circuit alone, with this file's own replay, gate-cost table and depth
   fold: coupling validity, the realized edge multiset, the final
   mapping, depth and CX, two lower bounds, and (on small devices)
   statevector equivalence to the logical circuit up to the output
   permutation.  [reply] checks that a wire reply carries the library
   result's depth, CX, strategy and circuit digest, and the expected
   cache flag. *)

module Arch = Qcr_arch.Arch
module Graph = Qcr_graph.Graph
module Gate = Qcr_circuit.Gate
module Circuit = Qcr_circuit.Circuit
module Mapping = Qcr_circuit.Mapping
module Program = Qcr_circuit.Program
module Pipeline = Qcr_core.Pipeline
module Statevector = Qcr_sim.Statevector
module Reply = Qcr_service.Compile_reply
module Json = Qcr_obs.Json

let pair a b = if a < b then (a, b) else (b, a)

(* Decomposed CX cost of one gate in the {CX, 1q} basis. *)
let cx_cost = function
  | Gate.Cx _ | Gate.Cz _ -> 1
  | Gate.Cphase _ | Gate.Rzz _ -> 2
  | Gate.Swap _ | Gate.Swap_interact _ | Gate.Swap_rzz _ -> 3
  | Gate.H _ | Gate.X _ | Gate.Rx _ | Gate.Rz _ | Gate.Measure _ | Gate.Barrier -> 0

let statevector_max_logical = 12
let statevector_max_physical = 14

(* |<logical circuit | compiled circuit read through the final mapping>|^2:
   logical bit l of basis state x sits on physical wire
   [phys_of_log final l]; every other wire must be |0>. *)
let overlap ~program (r : Pipeline.result) =
  let n_log = Program.qubit_count program in
  let compiled = Statevector.run r.Pipeline.circuit in
  let reference = Statevector.run (Program.logical_circuit program) in
  let wire = Array.init n_log (Mapping.phys_of_log r.Pipeline.final) in
  let re = ref 0.0 and im = ref 0.0 in
  for x = 0 to (1 lsl n_log) - 1 do
    let p = ref 0 in
    for l = 0 to n_log - 1 do
      if x land (1 lsl l) <> 0 then p := !p lor (1 lsl wire.(l))
    done;
    let ar, ai = Statevector.amplitude compiled !p and br, bi = Statevector.amplitude reference x in
    re := !re +. (br *. ar) +. (bi *. ai);
    im := !im +. (br *. ai) -. (bi *. ar)
  done;
  (!re *. !re) +. (!im *. !im)

let result ~arch ~program (r : Pipeline.result) =
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let n_phys = Arch.qubit_count arch and n_log = Program.qubit_count program in
  let coupling = Hashtbl.create 256 in
  List.iter (fun (u, v) -> Hashtbl.replace coupling (pair u v) ()) (Graph.edges (Arch.graph arch));
  let log_at = Array.make n_phys (-1) in
  for l = 0 to n_log - 1 do
    log_at.(Mapping.phys_of_log r.Pipeline.initial l) <- l
  done;
  let realized = Hashtbl.create 256 in
  let realize a b =
    let u = log_at.(a) and v = log_at.(b) in
    if u < 0 || v < 0 then fail "interaction on an unmapped wire (%d,%d)" a b
    else
      let k = pair u v in
      Hashtbl.replace realized k (1 + Option.value ~default:0 (Hashtbl.find_opt realized k))
  in
  let swap a b =
    let t = log_at.(a) in
    log_at.(a) <- log_at.(b);
    log_at.(b) <- t
  in
  let busy = Array.make (max n_phys 1) 0 and depth = ref 0 and cx = ref 0 in
  List.iter
    (fun g ->
      cx := !cx + cx_cost g;
      let two a b =
        if not (Hashtbl.mem coupling (pair a b)) then fail "gate on uncoupled pair (%d,%d)" a b;
        let finish = 1 + max busy.(a) busy.(b) in
        busy.(a) <- finish;
        busy.(b) <- finish;
        depth := max !depth finish
      in
      match g with
      | Gate.Cz (a, b) | Gate.Cphase (a, b, _) | Gate.Rzz (a, b, _) ->
          two a b;
          realize a b
      | Gate.Swap_interact (a, b, _) | Gate.Swap_rzz (a, b, _) ->
          two a b;
          realize a b;
          swap a b
      | Gate.Swap (a, b) ->
          two a b;
          swap a b
      | Gate.Cx (a, b) -> two a b
      | Gate.H _ | Gate.X _ | Gate.Rx _ | Gate.Rz _ | Gate.Measure _ | Gate.Barrier -> ())
    (Circuit.gates r.Pipeline.circuit);
  let graph = Program.graph program in
  let edges = Graph.edges graph in
  List.iter
    (fun (u, v) ->
      match Hashtbl.find_opt realized (pair u v) with
      | Some 1 -> ()
      | Some k -> fail "edge (%d,%d) realized %d times" u v k
      | None -> fail "edge (%d,%d) never realized" u v)
    edges;
  let realized_total = Hashtbl.fold (fun _ k acc -> acc + k) realized 0 in
  if realized_total <> List.length edges then
    fail "%d interactions realized for %d program edges" realized_total (List.length edges);
  for l = 0 to n_log - 1 do
    let p = Mapping.phys_of_log r.Pipeline.final l in
    if log_at.(p) <> l then fail "final mapping: logical %d claimed on %d, replay has %d" l p log_at.(p)
  done;
  if !depth <> r.Pipeline.depth then fail "depth: reported %d, replay %d" r.Pipeline.depth !depth;
  if !cx <> r.Pipeline.cx then fail "cx: reported %d, replay %d" r.Pipeline.cx !cx;
  let max_degree = ref 0 in
  for v = 0 to Graph.vertex_count graph - 1 do
    max_degree := max !max_degree (Graph.degree graph v)
  done;
  if r.Pipeline.depth < !max_degree then
    fail "depth %d below the max problem degree %d" r.Pipeline.depth !max_degree;
  if r.Pipeline.cx < 2 * List.length edges then
    fail "cx %d below 2|E| = %d" r.Pipeline.cx (2 * List.length edges);
  if !violations = [] && n_log <= statevector_max_logical && n_phys <= statevector_max_physical
  then begin
    let f = overlap ~program r in
    if f < 1.0 -. 1e-7 then fail "statevector fidelity %.9f against the logical circuit" f
  end;
  List.rev !violations

let reply ~(expect : Reply.metrics) ~cached json =
  let str k = match Json.member k json with Some (Json.Str s) -> s | _ -> "<missing>" in
  let int k =
    match Json.member k json with Some (Json.Num f) -> int_of_float f | _ -> -1
  in
  let bad = ref [] in
  let want k got exp = if got <> exp then bad := Printf.sprintf "%s %s, library %s" k got exp :: !bad in
  want "status" (str "status") "ok";
  want "depth" (string_of_int (int "depth")) (string_of_int expect.Reply.depth);
  want "cx" (string_of_int (int "cx")) (string_of_int expect.Reply.cx);
  want "strategy" (str "strategy") expect.Reply.strategy;
  want "circuit_digest" (str "circuit_digest") expect.Reply.circuit_digest;
  want "cached"
    (match Json.member "cached" json with Some (Json.Bool b) -> string_of_bool b | _ -> "<missing>")
    (string_of_bool cached);
  List.rev !bad
