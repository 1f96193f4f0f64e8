(* The end-to-end run: boot the real [xfrag serve] on the generated
   files, drive it over one keep-alive connection in a closed loop,
   then check every reply against the in-process engine.

   The sequence is replayed [replays] times, each time on a freshly
   booted server, so every replay starts from the same state and sends
   the same requests.  Latency percentiles pool the round trips of
   every replay; throughput, server CPU, memory and set-up time are the
   median replay's.  On a shared host the CPU's speed changes from one
   second to the next: pooling several replays samples more of those
   states than one long window would, and the pooled percentiles and
   medians moved less from run to run than each op's best round trip
   across replays (see README). *)

module Json = Xfrag_obs.Json

let replays = 8

type replay = {
  setup_s : float;  (** spawn to the first 200 from /healthz *)
  replies : Drive.reply array;
  window_s : float;
  cpu_ms : float;  (** server utime+stime over the window *)
  steal_pct : float;  (** host steal over the window *)
  load : float;  (** 1-minute load average at the end of the window *)
  rss_mb : float;  (** server VmHWM at the end of the replay *)
}

let replay ~xfrag ~files ~work (inputs : Inputs.t) =
  let server, setup_s =
    Drive.boot ~xfrag ~files
      ~access_log:(Filename.concat work "access.log")
      ~stderr_file:(Filename.concat work "server.err")
  in
  let ops = inputs.Inputs.ops in
  let n = Array.length ops in
  let first = inputs.Inputs.warmup in
  let last = first + inputs.Inputs.measured in
  let replies = Array.make n { Drive.status = 0; body = ""; latency_ms = Float.infinity } in
  let pid = server.Drive.pid in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !stopped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
    (fun () ->
      let k = Drive.connection server.Drive.port in
      let send_range a b =
        for i = a to b - 1 do
          replies.(i) <- Drive.send k ops.(i)
        done
      in
      send_range 0 first;
      let cpu0 = Drive.cpu_ticks pid and steal0, total0 = Drive.host_cpu () in
      let t0 = Clock.now_ns () in
      send_range first last;
      let t1 = Clock.now_ns () in
      let cpu1 = Drive.cpu_ticks pid and steal1, total1 = Drive.host_cpu () in
      let load = Drive.loadavg () in
      send_range last n;
      let rss_kb = Drive.status_kb pid "VmHWM" in
      Drive.drop k;
      Drive.stop server;
      stopped := true;
      {
        setup_s;
        replies;
        window_s = float_of_int (t1 - t0) /. 1e9;
        cpu_ms = float_of_int (cpu1 - cpu0) /. Drive.clock_ticks_per_s *. 1000.;
        steal_pct =
          100. *. Report.ratio (float_of_int (steal1 - steal0)) (float_of_int (total1 - total0));
        load;
        rss_mb = float_of_int rss_kb /. 1024.;
      })

type result = {
  metrics : Report.metric list;
  attempted : int;  (** ops after warm-up, times replays *)
  failed : int;
  all_verified : bool;  (** warm-up included *)
  checks : (string * bool) list;  (** workload self-checks *)
  context : (string * Json.t) list;
}

let field path json =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path

let int_field path json =
  Option.value ~default:0 (Option.bind (field path json) Json.to_int_opt)

let run ~xfrag ~work (inputs : Inputs.t) =
  Engine.isolate ();
  let files = Inputs.write_files inputs ~dir:(Filename.concat work "docs") in
  (* The server appends to its logs; start each run with empty ones. *)
  List.iter
    (fun f ->
      let path = Filename.concat work f in
      if Sys.file_exists path then Sys.remove path)
    [ "access.log"; "server.err" ];
  let rs = Array.init replays (fun _ -> replay ~xfrag ~files ~work inputs) in
  let ops = inputs.Inputs.ops in
  let n = Array.length ops in
  let first = inputs.Inputs.warmup in
  let last = first + inputs.Inputs.measured in
  (* Check every reply of every replay against the in-process engine,
     writes included, in sequence order. *)
  let engine = Engine.boot files in
  let verified =
    let v = Array.make_matrix replays n false in
    Array.iteri
      (fun i op ->
        let expected = Engine.apply engine op in
        Array.iteri
          (fun r rp ->
            let reply = rp.replies.(i) in
            v.(r).(i) <- Engine.matches expected ~status:reply.Drive.status reply.Drive.body)
          rs)
      ops;
    v
  in
  let range a b = List.init (b - a) (( + ) a) in
  (* Reads and writes whose latency counts: the window's reads, and the
     window's writes (corpus-churn) or the write phase's (corpus-topk). *)
  let read_ix = List.filter (fun i -> Inputs.is_read ops.(i)) (range first last) in
  let write_ix = List.filter (fun i -> not (Inputs.is_read ops.(i))) (range first n) in
  let nreads = float_of_int (List.length read_ix) in
  (* Every replay's round trips; a reply that did not verify counts as
     +inf. *)
  let pooled_ms ix =
    Array.concat
      (List.init replays (fun r ->
           Array.of_list
             (List.map
                (fun i ->
                  if verified.(r).(i) then rs.(r).replies.(i).Drive.latency_ms
                  else Float.infinity)
                ix)))
  in
  let read_ms = pooled_ms read_ix and write_ms = pooled_ms write_ix in
  (* Work counts come from the first replay's replies; the replays do
     identical work. *)
  let bodies =
    List.filter_map
      (fun i ->
        if verified.(0).(i) then Result.to_option (Json.of_string rs.(0).replies.(i).Drive.body)
        else None)
      read_ix
  in
  let sum_field path = List.fold_left (fun a j -> a + int_field path j) 0 bodies in
  let attempted = replays * (n - first) in
  let failed =
    Array.fold_left
      (fun acc v -> acc + List.length (List.filter (fun i -> not v.(i)) (range first n)))
      0 verified
  in
  let median_replay f = Report.median (Array.mapi f rs) in
  let metrics =
    [
      Report.metric "setup_s" "s" (median_replay (fun _ r -> r.setup_s));
      Report.metric "read_qps" "1/s"
        (median_replay (fun k r ->
             float_of_int (List.length (List.filter (fun i -> verified.(k).(i)) read_ix))
             /. r.window_s));
      Report.metric "read_p50_ms" "ms" (Report.percentile read_ms 0.50);
      Report.metric "read_p99_ms" "ms" (Report.percentile read_ms 0.99);
      Report.metric "write_p50_ms" "ms" (Report.percentile write_ms 0.50);
      Report.metric "write_p90_ms" "ms" (Report.percentile write_ms 0.90);
      Report.metric ~exact:true "joins_per_read" "joins"
        (float_of_int (sum_field [ "stats"; "fragment_joins" ]) /. nreads);
      Report.metric "server_cpu_ms_per_op" "ms"
        (median_replay (fun _ r -> r.cpu_ms) /. float_of_int inputs.Inputs.measured);
      Report.metric "server_rss_mb" "MB" (median_replay (fun _ r -> r.rss_mb));
      Report.metric "success_frac" "fraction"
        (float_of_int (attempted - failed) /. float_of_int attempted);
    ]
  in
  let checks =
    Checks.workload inputs.Inputs.workload ~engine
      ~routed_out:(sum_field [ "routing"; "routed_out" ])
      ~candidates:(sum_field [ "routing"; "candidates" ])
      ~bound_skips:(sum_field [ "routing"; "bound_skips" ])
  in
  let floats f = Json.List (Array.to_list (Array.map (fun r -> Json.Float (f r)) rs)) in
  let context =
    [
      ("replays", Json.Int replays);
      ("reads", Json.Int (List.length read_ix));
      ("writes", Json.Int (List.length write_ix));
      ( "reads_beyond_p99",
        Json.Int (Array.length read_ms - int_of_float (Float.ceil (0.99 *. float_of_int (Array.length read_ms)))) );
      ("server_flags", Json.String (String.concat " " Drive.server_flags));
      ("writes_by_kind", Engine.tally_json engine);
      ("window_s", floats (fun r -> r.window_s));
      ("steal_pct", floats (fun r -> r.steal_pct));
      ("loadavg_1m", floats (fun r -> r.load));
      ("setup_s", floats (fun r -> r.setup_s));
    ]
  in
  {
    metrics;
    attempted;
    failed;
    all_verified = Array.for_all (Array.for_all Fun.id) verified;
    checks;
    context;
  }
