(* The benchmark's own guarantees: inputs are a pure function of the
   seed, and the traced run's work counters repeat exactly. *)

open Servebench

let check name cond =
  if not cond then begin
    prerr_endline ("FAIL: " ^ name);
    exit 1
  end
  else print_endline ("ok: " ^ name)

let reads = 60

let bytes w seed = Inputs.to_bytes (Inputs.make w ~seed ~reads)

let () =
  List.iter
    (fun w ->
      let name = Inputs.workload_name w in
      check (name ^ ": same seed, byte-identical inputs") (bytes w 7 = bytes w 7);
      check (name ^ ": another seed, different inputs") (bytes w 7 <> bytes w 8))
    Inputs.all_workloads

let exact_counters w =
  let work = Filename.concat "test-work" (Inputs.workload_name w) in
  if not (Sys.file_exists "test-work") then Sys.mkdir "test-work" 0o755;
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  if not (Sys.file_exists (Filename.concat work "docs")) then
    Sys.mkdir (Filename.concat work "docs") 0o755;
  let r = Traced.run ~work (Inputs.make w ~seed:3 ~reads) in
  check (Inputs.workload_name w ^ ": traced replies verified") r.Traced.all_verified;
  List.filter_map
    (fun m -> if m.Report.exact then Some (m.Report.name, m.Report.value) else None)
    r.Traced.metrics

(* Traced.run isolates itself from the XFRAG_* configuration this test
   may run under. *)
let () =
  List.iter
    (fun w ->
      let a = exact_counters w and b = exact_counters w in
      List.iter2
        (fun (n, x) (_, y) ->
          if not (Float.equal x y) then Printf.eprintf "%s: %g vs %g\n" n x y)
        a b;
      check (Inputs.workload_name w ^ ": two traced runs, identical counters") (a = b))
    Inputs.all_workloads
