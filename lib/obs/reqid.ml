(* Request-id minting.  Ids must be unique within a process and cheap to
   mint from any domain: the process seed hashes pid + start time, and
   the per-request suffix is a process-wide atomic counter. *)

let seed =
  lazy
    (let pid = Unix.getpid () in
     let t = Unix.gettimeofday () in
     Printf.sprintf "%08x"
       (Hashtbl.hash (pid, Int64.bits_of_float t) land 0xffffffff))

let counter = Atomic.make 0

let mint () =
  let n = Atomic.fetch_and_add counter 1 in
  Printf.sprintf "req-%s-%d" (Lazy.force seed) n

let max_len = 128

let valid id =
  let n = String.length id in
  n > 0 && n <= max_len
  && (let ok = ref true in
      String.iter
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> ()
          | _ -> ok := false)
        id;
      !ok)

let accept_or_mint = function
  | Some id when valid id -> id
  | _ -> mint ()
