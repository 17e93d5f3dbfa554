(* The three workloads, generated from a seed.

   A workload is a fixed list of request shapes (problem family and size,
   device family, mode, noisy or not).  The seed draws the problem
   instances, the noise seeds and the order of the wire stream, never the
   shapes, so every seed puts the same amount of work on each layer and
   the end-to-end figures of two seeds are comparable.

   Why each workload exists (see README.md for the layer shares):
   - compile-sparse: sparse problems of 64-256 qubits, mostly [Ours],
     half of the <=128-qubit ones noisy (noise makes the pipeline compile
     every candidate placement).  The placement anneal dominates.
   - compile-ata: rigid [Ata] patterns on 196-324 qubits (Theta(n^2)
     gates) plus [Ours] on dense problems.  ATA materialization and
     finalize carry a large share.
   - serve-mixed: a few dozen small requests in a Zipf-skewed stream,
     almost all cache hits.  Decode, cache key, cache, session and socket
     carry the time.

   Every workload also holds requests of at most 12 logical qubits on
   devices of at most 14 physical qubits, so the statevector check runs
   on each of them. *)

module Arch = Qcr_arch.Arch
module Graph = Qcr_graph.Graph
module Generate = Qcr_graph.Generate
module Hamiltonian = Qcr_workloads.Hamiltonian
module Program = Qcr_circuit.Program
module Prng = Qcr_util.Prng
module Request = Qcr_service.Compile_request
module Protocol = Qcr_service.Protocol
module Json = Qcr_obs.Json

type problem =
  | Qaoa3 of int  (** random 3-regular MaxCut *)
  | Ising of int  (** next-nearest-neighbour Ising chain, relabelled *)
  | Lattice of int * int  (** nearest-neighbour 2D lattice, relabelled *)
  | Dense of int * float  (** Erdos-Renyi graph with this density *)

type shape = { problem : problem; kind : Arch.kind; mode : Request.mode; noisy : bool }

type t = {
  requests : Request.t array;  (** distinct requests, each compiled once per library pass *)
  stream : int array;  (** sync wire ops, as indices into [requests] *)
  burst : int array;  (** async jobs of one burst, as indices into [requests] *)
}

let names = [ "compile-sparse"; "compile-ata"; "serve-mixed" ]

let shape ?(noisy = false) mode kind problem = { problem; kind; mode; noisy }

let compile_sparse =
  let open Arch in
  let open Request in
  [
    shape ~noisy:true Ours Heavy_hex (Qaoa3 64);
    shape ~noisy:true Ours Sycamore (Qaoa3 64);
    shape ~noisy:true Ours Grid (Ising 80);
    shape ~noisy:true Ours Grid (Qaoa3 96);
    shape ~noisy:true Greedy Sycamore (Lattice (8, 12));
    shape ~noisy:true Ours Heavy_hex (Qaoa3 128);
    shape Ours Sycamore (Qaoa3 100);
    shape Ours Heavy_hex (Ising 120);
    shape Ours Grid (Lattice (10, 12));
    shape Greedy Grid (Qaoa3 128);
    shape Ours Sycamore (Qaoa3 160);
    shape Ours Grid (Ising 192);
    shape Ours Heavy_hex (Qaoa3 224);
    shape Ours Heavy_hex (Lattice (16, 16));
    shape Greedy Sycamore (Qaoa3 256);
    shape ~noisy:true Ours Grid (Qaoa3 10);
    shape Ours Line (Ising 12);
  ]

let compile_ata =
  let open Arch in
  let open Request in
  [
    shape Ata Grid (Qaoa3 196);
    shape Ata Heavy_hex (Ising 224);
    shape Ata Sycamore (Lattice (16, 16));
    shape ~noisy:true Ata Grid (Qaoa3 288);
    shape Ata Grid (Ising 324);
    shape ~noisy:true Ours Grid (Dense (32, 0.9));
    shape Ours Heavy_hex (Dense (48, 0.6));
    shape Ours Sycamore (Dense (64, 0.5));
    shape Ours Grid (Dense (80, 0.4));
    shape Ours Heavy_hex (Dense (96, 0.3));
    shape Ours Sycamore (Dense (72, 0.7));
    shape ~noisy:true Ours Grid (Dense (10, 0.8));
    shape Ata Line (Dense (9, 0.5));
  ]

(* A few dozen small requests whose wire lines span about 10x in length:
   sizes cycle through [sizes], mean degrees through [degrees]. *)
let serve_mixed =
  let kinds = Arch.[| Line; Grid; Heavy_hex; Hexagon; Sycamore |] in
  let modes = Request.[| Ours; Greedy; Ata |] in
  let sizes = [| 8; 12; 16; 24; 32; 40; 48; 64; 10; 20; 28; 56 |] in
  let degrees = [| 3.0; 4.0; 6.0 |] in
  List.init 36 (fun i ->
      let n = sizes.(i mod Array.length sizes) in
      let density = Float.min 0.9 (degrees.(i mod 3) /. float_of_int (n - 1)) in
      shape ~noisy:(i / 3 mod 3 = 1) modes.(i mod 3) kinds.(i mod 5) (Dense (n, density)))

let shapes = function
  | "compile-sparse" -> compile_sparse
  | "compile-ata" -> compile_ata
  | "serve-mixed" -> serve_mixed
  | w -> invalid_arg ("unknown workload " ^ w)

(* Cache hits in one sync stream (at least 1000, so the p99 has ten
   samples beyond it) and jobs in one async burst (below the server's
   256 retained terminal jobs, so every wait finds its job). *)
let stream_hits = function "serve-mixed" -> 3000 | _ -> 1200

let burst_jobs = 200

let relabel rng n edges =
  let perm = Array.init n Fun.id in
  Prng.shuffle rng perm;
  List.map (fun (u, v) -> (perm.(u), perm.(v))) edges

let graph_edges rng = function
  | Qaoa3 n -> (n, Graph.edges (Generate.random_regular rng ~n ~degree:3))
  | Ising n -> (n, relabel rng n (Graph.edges (Hamiltonian.nnn_1d_ising n)))
  | Lattice (rows, cols) ->
      let n = rows * cols in
      (n, relabel rng n (Graph.edges (Generate.lattice ~rows ~cols)))
  | Dense (n, density) ->
      (* redraw the (rare) empty graph: a request needs at least one edge *)
      let rec draw () =
        match Graph.edges (Generate.erdos_renyi rng ~n ~density) with [] -> draw () | es -> es
      in
      (n, draw ())

let interaction = function
  | Qaoa3 _ | Dense _ -> Program.Qaoa_maxcut { gamma = 0.4; beta = 0.35 }
  | Ising _ | Lattice _ -> Program.Two_local { theta = 0.3 }

(* [count] ops Zipf(1.1)-distributed over [distinct] requests ranked in
   list order: exact expected counts (largest remainders), so every seed
   sends the same multiset of requests and only the order differs. *)
let zipf ~distinct ~count =
  let weights = Array.init distinct (fun i -> 1.0 /. (float_of_int (i + 1) ** 1.1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let share = Array.map (fun w -> float_of_int count *. w /. total) weights in
  let counts = Array.map truncate share in
  let short = count - Array.fold_left ( + ) 0 counts in
  let by_remainder = Array.init distinct Fun.id in
  Array.stable_sort
    (fun a b -> compare (share.(b) -. Float.of_int counts.(b)) (share.(a) -. Float.of_int counts.(a)))
    by_remainder;
  for k = 0 to short - 1 do
    counts.(by_remainder.(k)) <- counts.(by_remainder.(k)) + 1
  done;
  Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c i) counts))

let generate ~name ~seed =
  let rng = Prng.create ((seed * 7919) + Hashtbl.hash name) in
  let requests =
    Array.of_list
      (List.mapi
         (fun i s ->
           let qubits, edges = graph_edges rng s.problem in
           let noise_seed = if s.noisy then Some (1 + Prng.int rng 1_000_000) else None in
           Request.make
             ~id:(Printf.sprintf "%s-%d" name i)
             ~interaction:(interaction s.problem) ~mode:s.mode ?noise_seed ~arch_kind:s.kind
             ~qubits ~edges ())
         (shapes name))
  in
  let distinct = Array.length requests in
  (* every request once (its miss), then Zipf-drawn repeats (hits) *)
  let stream = Array.append (Array.init distinct Fun.id) (zipf ~distinct ~count:(stream_hits name)) in
  Prng.shuffle rng stream;
  let burst = zipf ~distinct ~count:burst_jobs in
  Prng.shuffle rng burst;
  { requests; stream; burst }

let compile_line (r : Request.t) = Json.to_string (Protocol.encode (Protocol.Op.Compile r))

let submit_line ~idem (r : Request.t) =
  Json.to_string (Protocol.encode (Protocol.Op.Submit (r, Some idem)))

let idem ~round k = Printf.sprintf "r%d-%d" round k
