(* servebench: one run of one workload.

     main.exe --workload W --seed N --seconds S --trace 0|1
              --xfrag PATH --work DIR [--revision REV]

   --trace 0 boots [xfrag serve] and prints the end-to-end metrics;
   --trace 1 replays the same sequence in this process and prints the
   per-layer metrics.  Either way the last line of standard output is
   the result object, and the line before it the run context. *)

open Servebench
module Json = Xfrag_obs.Json

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let xfrag = ref "" and work = ref "" and revision = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME corpus-topk | corpus-churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S nominal length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced in-process run (1)");
      ("--xfrag", Arg.Set_string xfrag, "PATH the xfrag binary to serve with");
      ("--work", Arg.Set_string work, "DIR directory for inputs, logs and spans");
      ("--revision", Arg.Set_string revision, "REV source revision, for the run context");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --xfrag PATH --work DIR";
  let w =
    match Inputs.workload_of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline ("servebench: unknown workload " ^ !workload);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) || !work = "" then begin
    prerr_endline "servebench: need --seconds >= 1, --trace 0|1 and --work";
    exit 2
  end;
  let work = Filename.concat !work (Inputs.workload_name w) in
  mkdir_p (Filename.concat work "docs");
  let inputs =
    Inputs.make w ~seed:!seed
      ~reads:(Inputs.reads_for ~seconds:!seconds ~replays:Serve_run.replays)
  in
  let context =
    [
      ("workload", Json.String (Inputs.workload_name w));
      ("seed", Json.Int !seed);
      ("trace", Json.Int !trace);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("revision", Json.String !revision);
    ]
  in
  let correct, attempted, failed, metrics, checks, extra =
    if !trace = 1 then begin
      let r = Traced.run ~work inputs in
      ( r.Traced.all_verified,
        r.Traced.attempted,
        r.Traced.attempted - r.Traced.verified,
        r.Traced.metrics,
        r.Traced.checks,
        r.Traced.context )
    end
    else begin
      if !xfrag = "" then begin
        prerr_endline "servebench: --trace 0 needs --xfrag";
        exit 2
      end;
      let r = Serve_run.run ~xfrag:!xfrag ~work inputs in
      ( r.Serve_run.all_verified,
        r.Serve_run.attempted,
        r.Serve_run.failed,
        r.Serve_run.metrics,
        r.Serve_run.checks,
        r.Serve_run.context )
    end
  in
  List.iter
    (fun (name, ok) ->
      if not ok then prerr_endline ("servebench: self-check failed: " ^ name))
    checks;
  let correct = correct && List.for_all snd checks in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "context",
              Json.Obj
                (context @ extra
                @ [
                    ( "checks",
                      Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) checks) );
                  ]) );
          ]));
  Report.print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
