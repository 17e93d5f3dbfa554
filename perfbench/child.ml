(* The [qcr serve --listen] child process the wire phases talk to.

   The child runs on fresh journal and cache directories under the run's
   scratch directory, with QCR_DOMAINS=1 (the host has two cores, and the
   benchmark process needs one of them).  [stop] is the graceful SIGTERM
   drain; a child that does not exit within [drain_s] is killed. *)

module Client = Qcr_net.Client
module Json = Qcr_obs.Json

type t = { pid : int; port : int; out : Unix.file_descr; client : Client.t }

let drain_s = 20.0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let environment () =
  Array.append [| "QCR_DOMAINS=1" |]
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"QCR_" kv))
          (Array.to_list (Unix.environment ()))))

(* Read the child's stdout until it prints "listening on HOST:PORT". *)
let await_port out =
  let buf = Buffer.create 128 and chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 60.0 in
  let parse () =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.find_map (fun line ->
           if String.starts_with ~prefix:"listening on " line then
             Option.bind (String.rindex_opt line ':') (fun i ->
                 int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)))
           else None)
  in
  let rec loop () =
    match parse () with
    | Some port -> port
    | None ->
        if Unix.gettimeofday () > deadline then failwith "server did not listen within 60 s";
        (match Unix.select [ out ] [] [] 1.0 with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read out chunk 0 (Bytes.length chunk) with
            | 0 -> failwith "server exited before listening"
            | n -> Buffer.add_subbytes buf chunk 0 n));
        loop ()
  in
  loop ()

let request client json =
  match Client.request ~timeout_s:120.0 client json with
  | Ok j -> j
  | Error e -> failwith ("server: " ^ e)

(* Start a server and wait for its first reply (a [health] op). *)
let start ~cli ~dir =
  rm_rf dir;
  mkdir_p dir;
  let argv =
    [|
      cli; "serve"; "--listen"; "127.0.0.1:0"; "--journal-dir"; Filename.concat dir "journal";
      "--cache-dir"; Filename.concat dir "cache"; "--max-queue"; "1024";
    |]
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env cli argv (environment ()) Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  match await_port out_r with
  | port ->
      let client = Client.connect ~port () in
      ignore (request client (Json.Obj [ ("v", Json.Num 2.0); ("op", Json.Str "health") ]));
      { pid; port; out = out_r; client }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Unix.close out_r;
      raise e

(* Graceful drain; returns whether the child exited 0 on its own. *)
let stop t =
  Client.close t.client;
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. drain_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid);
          false
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let clean = wait () in
  Unix.close t.out;
  clean
