(* The real [xfrag serve] as a child process, driven in a closed loop
   over one keep-alive connection, and read through /proc/<pid>. *)

module Client = Xfrag_server.Client

(* --- the server process ---------------------------------------------------- *)

type server = { pid : int; port : int; stdout : in_channel }

(* One connection and one worker: a keep-alive connection pins its
   worker, so a second connection would only measure queueing behind
   the first.  One shard: two shard domains evict each other's
   join-cache partitions in a timing-dependent order, and join counts
   stop repeating. *)
let server_flags = [ "--port"; "0"; "--workers"; "1"; "--shards"; "1" ]

(* The server runs with every XFRAG_* variable removed, so only the
   flags above configure it. *)
let clean_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"XFRAG_" kv))
  |> Array.of_list

let parse_port line =
  match String.rindex_opt line ':' with
  | None -> None
  | Some i ->
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      let digits = List.hd (String.split_on_char ' ' rest) in
      int_of_string_opt digits

(* Spawn [xfrag serve], wait for its listening line, then for the first
   200 from GET /healthz.  Returns the server and the seconds from
   spawn to that 200. *)
let boot ~xfrag ~files ~access_log ~stderr_file =
  let args =
    Array.of_list (("xfrag" :: "serve" :: server_flags) @ [ "--access-log"; access_log ] @ files)
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile stderr_file [ Unix.O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644 in
  let t0 = Clock.now_ns () in
  let pid = Unix.create_process_env xfrag args (clean_env ()) Unix.stdin out_w err in
  Unix.close out_w;
  Unix.close err;
  let stdout = Unix.in_channel_of_descr out_r in
  let fail msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in_noerr stdout;
    failwith msg
  in
  let port =
    match In_channel.input_line stdout with
    | Some line -> (
        match parse_port line with
        | Some p -> p
        | None -> fail ("unexpected server banner: " ^ line))
    | None -> fail "server exited before listening (see its stderr log)"
  in
  match Client.once ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/healthz" () with
  | Ok (200, _, _) ->
      let setup_ns = Clock.now_ns () - t0 in
      ({ pid; port; stdout }, float_of_int setup_ns /. 1e9)
  | Ok (st, _, _) -> fail (Printf.sprintf "/healthz answered %d" st)
  | Error e -> fail ("/healthz failed: " ^ e)

(* SIGTERM drains and exits 0; wait for it. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] s.pid in
  close_in_noerr s.stdout;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failwith (Printf.sprintf "server exited with code %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      failwith (Printf.sprintf "server stopped by signal %d" n)

(* --- /proc ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of every thread of [pid], in clock ticks. *)
let cpu_ticks pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name, which may hold spaces. *)
  let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* f.(0) is field 3 (state); utime and stime are fields 14 and 15. *)
  int_of_string f.(11) + int_of_string f.(12)

let clock_ticks_per_s = 100.

let status_kb pid key =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:(key ^ ":") line then
           Scanf.sscanf_opt
             (String.sub line (String.length key + 1) (String.length line - String.length key - 1))
             " %d kB" Fun.id
         else None)
  |> Option.value ~default:0

(* Aggregate CPU line of /proc/stat: (steal, total) in ticks. *)
let host_cpu () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  let nums =
    String.split_on_char ' ' line |> List.tl
    |> List.filter_map int_of_string_opt
  in
  let steal = match List.nth_opt nums 7 with Some s -> s | None -> 0 in
  (steal, List.fold_left ( + ) 0 nums)

let loadavg () =
  match String.split_on_char ' ' (read_file "/proc/loadavg") with
  | one :: _ -> float_of_string one
  | [] -> 0.

(* --- the closed loop --------------------------------------------------------- *)

type reply = { status : int; body : string; latency_ms : float }

type conn = { port : int; mutable c : Client.conn option }

let connection port = { port; c = None }

let get_conn k =
  match k.c with
  | Some c -> c
  | None ->
      let c = Client.connect ~host:"127.0.0.1" ~port:k.port () in
      k.c <- Some c;
      c

let drop k =
  Option.iter Client.close k.c;
  k.c <- None

let http_of_op = function
  | Inputs.Read body -> ("POST", Inputs.read_path, body)
  | Inputs.Put (name, xml) -> ("PUT", "/corpus/docs/" ^ name, xml)
  | Inputs.Delete name -> ("DELETE", "/corpus/docs/" ^ name, "")

(* Send one op and wait for its reply.  The server closes a keep-alive
   connection after 100 requests; the loop reconnects after the reply
   that says so, outside the timed round trip. *)
let send k op =
  let meth, path, body = http_of_op op in
  let c = get_conn k in
  let t0 = Clock.now_ns () in
  let r = Client.request c ~meth ~path ~body () in
  let latency_ms = float_of_int (Clock.now_ns () - t0) /. 1e6 in
  match r with
  | Ok (status, headers, body) ->
      let closing =
        List.exists
          (fun (n, v) ->
            String.lowercase_ascii n = "connection"
            && String.lowercase_ascii (String.trim v) = "close")
          headers
      in
      if closing then drop k;
      { status; body; latency_ms }
  | Error _ ->
      drop k;
      { status = 0; body = ""; latency_ms = Float.infinity }
