(* Fault-injection and containment tests: the failpoint DSL itself
   (spec grammar, trigger semantics, truncation, deterministic delay),
   the quarantining document loader, codec corrupt-read handling, worker
   supervision in both pools (restart, restart-storm degradation), the
   client's deterministic retry backoff, and the router's structured
   fault 500s. *)

module Fault = Xfrag_fault.Fault
module Failpoint = Fault.Failpoint
module Loader = Xfrag_doctree.Loader
module Codec = Xfrag_doctree.Codec
module Shard_pool = Xfrag_core.Shard_pool
module Pool = Xfrag_server.Pool
module Router = Xfrag_server.Router
module Client = Xfrag_server.Client
module Http = Xfrag_server.Http
module Json = Xfrag_obs.Json
module Paper = Xfrag_workload.Paper_doc

let contains ~sub s = Astring.String.find_sub ~sub s <> None

(* Bounded poll-wait for cross-domain effects (worker restarts happen on
   supervisor domains); never an unbounded spin. *)
let wait_for ?(timeout_ms = 5000) pred =
  let rec go remaining =
    pred () || (remaining > 0 && (Unix.sleepf 0.01; go (remaining - 10)))
  in
  go timeout_ms

let raises_injected site f =
  match f () with
  | _ -> false
  | exception Fault.Injected (s, _) -> s = site

(* --- failpoint core --- *)

let test_disarmed_is_noop () =
  Failpoint.clear ();
  Failpoint.hit "never.armed";
  Alcotest.(check string) "data passes through" "payload"
    (Failpoint.data "never.armed" "payload");
  Alcotest.(check int) "no hit counting while disarmed" 0
    (Failpoint.hit_count "never.armed")

let test_raise_always () =
  Alcotest.(check bool) "armed site raises Injected" true
    (Failpoint.with_armed "t.raise" Fault.Raise (fun () ->
         raises_injected "t.raise" (fun () -> Failpoint.hit "t.raise")));
  (* with_armed disarmed on the way out. *)
  Failpoint.hit "t.raise";
  Alcotest.(check bool) "fired count survives disarming" true
    (Failpoint.fired_count "t.raise" >= 1)

let test_nth_trigger () =
  Failpoint.with_armed ~trigger:(Fault.Nth 2) "t.nth" Fault.Raise (fun () ->
      Failpoint.hit "t.nth";
      Alcotest.(check bool) "fires exactly on the 2nd hit" true
        (raises_injected "t.nth" (fun () -> Failpoint.hit "t.nth"));
      Failpoint.hit "t.nth";
      Alcotest.(check int) "hits counted" 3 (Failpoint.hit_count "t.nth"))

let test_from_trigger () =
  Failpoint.with_armed ~trigger:(Fault.From 2) "t.from" Fault.Raise (fun () ->
      Failpoint.hit "t.from";
      Alcotest.(check bool) "fires on the 2nd hit" true
        (raises_injected "t.from" (fun () -> Failpoint.hit "t.from"));
      Alcotest.(check bool) "keeps firing afterwards" true
        (raises_injected "t.from" (fun () -> Failpoint.hit "t.from")))

let test_key_trigger () =
  Failpoint.with_armed ~trigger:(Fault.Key "b.xml") "t.key" Fault.Raise
    (fun () ->
      Failpoint.hit ~key:"a.xml" "t.key";
      Failpoint.hit "t.key";
      Alcotest.(check bool) "fires only for the matching key" true
        (raises_injected "t.key" (fun () -> Failpoint.hit ~key:"b.xml" "t.key")))

let test_rearming_resets_the_hit_counter () =
  Failpoint.arm ~trigger:(Fault.Nth 1) "t.rearm" Fault.Raise;
  Alcotest.(check bool) "first arming fires" true
    (raises_injected "t.rearm" (fun () -> Failpoint.hit "t.rearm"));
  Failpoint.arm ~trigger:(Fault.Nth 1) "t.rearm" Fault.Raise;
  Alcotest.(check bool) "re-arming counts hits from scratch" true
    (raises_injected "t.rearm" (fun () -> Failpoint.hit "t.rearm"));
  Failpoint.disarm "t.rearm"

let test_truncate () =
  Failpoint.with_armed "t.trunc" (Fault.Truncate 3) (fun () ->
      Alcotest.(check string) "long data cut" "abc"
        (Failpoint.data "t.trunc" "abcdef");
      Alcotest.(check string) "short data untouched" "ab"
        (Failpoint.data "t.trunc" "ab");
      (* A dataless site treats Truncate as a no-op. *)
      Failpoint.hit "t.trunc")

let test_delay_hook () =
  let recorded = ref [] in
  Failpoint.set_delay_hook (fun n -> recorded := n :: !recorded);
  Fun.protect
    ~finally:(fun () -> Failpoint.set_delay_hook (fun _ -> ()))
    (fun () ->
      Failpoint.with_armed "t.delay" (Fault.Delay 5) (fun () ->
          Failpoint.hit "t.delay";
          Failpoint.hit "t.delay");
      Alcotest.(check (list int)) "delay units reach the hook" [ 5; 5 ]
        (List.rev !recorded))

let test_arm_spec_grammar () =
  Failpoint.clear ();
  (match
     Failpoint.arm_spec
       "t.s1=raise@key=b.xml;t.s2=delay:16;t.s3=truncate:4@2;t.s4=raise@3+"
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spec rejected: %s" e);
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " armed") true (Failpoint.armed s))
    [ "t.s1"; "t.s2"; "t.s3"; "t.s4" ];
  Failpoint.hit ~key:"a.xml" "t.s1";
  Alcotest.(check bool) "key trigger from spec" true
    (raises_injected "t.s1" (fun () -> Failpoint.hit ~key:"b.xml" "t.s1"));
  (* off disarms a previously armed site. *)
  (match Failpoint.arm_spec "t.s4=off" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "off rejected: %s" e);
  Alcotest.(check bool) "off disarms" false (Failpoint.armed "t.s4");
  Failpoint.clear ()

let test_arm_spec_bad_entries_are_reported_not_fatal () =
  Failpoint.clear ();
  (match Failpoint.arm_spec "t.ok=raise;bogus;t.bad=wat@x" with
  | Ok () -> Alcotest.fail "expected an error for the malformed entries"
  | Error msg ->
      Alcotest.(check bool) "error names the bad entry" true
        (contains ~sub:"bogus" msg));
  Alcotest.(check bool) "valid entry still armed" true (Failpoint.armed "t.ok");
  Failpoint.clear ()

let test_counters () =
  Fault.reset_counters ();
  Fault.record "t_counter";
  Fault.add "t_other" 3;
  Alcotest.(check int) "record" 1 (Fault.count "t_counter");
  Alcotest.(check int) "add" 3 (Fault.count "t_other");
  Alcotest.(check int) "absent" 0 (Fault.count "t_nope");
  (try
     Failpoint.with_armed "t.fired" Fault.Raise (fun () ->
         Failpoint.hit "t.fired")
   with Fault.Injected _ -> ());
  let snapshot = Fault.counters () in
  Alcotest.(check bool) "recorded counter in snapshot" true
    (List.mem_assoc "t_counter" snapshot);
  Alcotest.(check bool) "fired site surfaces as an injected series" true
    (List.mem_assoc "injected{site=\"t.fired\"}" snapshot)

(* --- quarantining loader --- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "xfrag_fault_test_%d_%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let test_loader_quarantines_corrupt_files () =
  let dir = fresh_dir () in
  let good = Filename.concat dir "good.xml" in
  let bad = Filename.concat dir "bad.xml" in
  let good2 = Filename.concat dir "good2.xml" in
  write_file good "<doc><p>alpha beta</p></doc>";
  write_file bad "<doc><p>never closed";
  write_file good2 "<doc><p>gamma</p></doc>";
  let missing = Filename.concat dir "missing.xml" in
  let docs, quarantine = Loader.load_documents [ good; bad; good2; missing ] in
  Alcotest.(check (list string)) "survivors, in input order"
    [ "good.xml"; "good2.xml" ]
    (List.map fst docs);
  Alcotest.(check (list string)) "quarantined, in input order" [ bad; missing ]
    (List.map (fun q -> q.Loader.q_file) quarantine);
  List.iter
    (fun q ->
      Alcotest.(check bool) "reason is non-empty" true (q.Loader.q_reason <> ""))
    quarantine

let test_loader_quarantines_duplicate_names () =
  let dir = fresh_dir () in
  let sub name =
    let d = Filename.concat dir name in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Filename.concat d "doc.xml"
  in
  let first = sub "a" and second = sub "b" in
  write_file first "<doc><p>one</p></doc>";
  write_file second "<doc><p>two</p></doc>";
  let docs, quarantine = Loader.load_documents [ first; second ] in
  Alcotest.(check int) "one survivor" 1 (List.length docs);
  (match quarantine with
  | [ q ] ->
      Alcotest.(check string) "the later duplicate is rejected" second
        q.Loader.q_file;
      Alcotest.(check bool) "reason says duplicate" true
        (contains ~sub:"duplicate" q.Loader.q_reason)
  | _ -> Alcotest.fail "expected exactly one quarantined file")

let test_loader_parse_failpoint_quarantines_by_path () =
  let dir = fresh_dir () in
  let a = Filename.concat dir "a.xml" in
  let b = Filename.concat dir "b.xml" in
  write_file a "<doc><p>alpha</p></doc>";
  write_file b "<doc><p>beta</p></doc>";
  Failpoint.with_armed ~trigger:(Fault.Key a) "parse.document" Fault.Raise
    (fun () ->
      let docs, quarantine = Loader.load_documents [ a; b ] in
      Alcotest.(check (list string)) "only the victim is quarantined" [ a ]
        (List.map (fun q -> q.Loader.q_file) quarantine);
      Alcotest.(check bool) "reason says injected" true
        (contains ~sub:"injected" (List.hd quarantine).Loader.q_reason);
      Alcotest.(check (list string)) "sibling loads" [ "b.xml" ]
        (List.map fst docs))

let test_loader_quarantine_closes_descriptors () =
  (* A directory opens like a file and then fails to read: every such
     quarantined path must leave no descriptor open behind it. *)
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let dir = fresh_dir () in
  let paths =
    List.init 100 (fun i ->
        let d = Filename.concat dir (Printf.sprintf "dir%03d.xml" i) in
        (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        d)
  in
  let before = open_fds () in
  let docs, quarantine = Loader.load_documents paths in
  let after = open_fds () in
  Alcotest.(check int) "nothing loads" 0 (List.length docs);
  Alcotest.(check int) "every path quarantined" 100 (List.length quarantine);
  Alcotest.(check int) "open descriptors unchanged" before after

let test_codec_read_faults_become_errors () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "t.doctree" in
  Codec.save (Paper.figure1 ()) path;
  (match Codec.load path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean load failed: %s" e);
  Failpoint.with_armed "codec.read" (Fault.Truncate 10) (fun () ->
      match Codec.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a torn read must not decode");
  Failpoint.with_armed "codec.read" Fault.Raise (fun () ->
      match Codec.load path with
      | Error e ->
          Alcotest.(check bool) "raise maps to the Error channel" true
            (contains ~sub:"injected" e)
      | Ok _ -> Alcotest.fail "expected an error");
  match Codec.load path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "load after disarming failed: %s" e

(* --- shard pool supervision --- *)

let test_shard_pool_replaces_a_killed_worker () =
  let pool = Shard_pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.disarm "shard.worker";
      Shard_pool.shutdown pool)
    (fun () ->
      Failpoint.arm ~trigger:(Fault.Nth 1) "shard.worker" Fault.Raise;
      let results =
        Shard_pool.map_all pool (Array.init 16 (fun i () -> i * i))
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "task result survives the kill" (i * i) v
          | Error e ->
              Alcotest.failf "task %d lost to the dying worker: %s" i
                (Printexc.to_string e))
        results;
      Alcotest.(check bool) "the death is detected and counted" true
        (wait_for (fun () -> Shard_pool.restarts pool >= 1));
      Alcotest.(check int) "pool back at full strength" 2
        (Shard_pool.domains pool);
      Alcotest.(check bool) "not degraded" false (Shard_pool.degraded pool);
      Alcotest.(check bool) "worker_restarts fault counter" true
        (Fault.count "worker_restarts" >= 1))

let test_shard_pool_restart_storm_degrades_to_sequential () =
  let pool = Shard_pool.create ~domains:1 ~restart_cap:2 () in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.disarm "shard.worker";
      Shard_pool.shutdown pool)
    (fun () ->
      (* Every pop kills the worker: the queued claim-wrappers chain-kill
         each replacement until the cap trips. *)
      Failpoint.arm "shard.worker" Fault.Raise;
      let results = Shard_pool.map_all pool (Array.init 8 (fun i () -> i)) in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "caller completed the task" i v
          | Error e -> Alcotest.failf "lost task: %s" (Printexc.to_string e))
        results;
      Alcotest.(check bool) "storm cap trips" true
        (wait_for (fun () -> Shard_pool.degraded pool));
      Alcotest.(check int) "restarts stopped at the cap" 2
        (Shard_pool.restarts pool);
      Alcotest.(check int) "no live domains remain" 0
        (Shard_pool.domains pool);
      (* A fully degraded pool still serves, inline in the caller. *)
      let again = Shard_pool.map_all pool (Array.init 4 (fun i () -> i + 1)) in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "degraded pool still answers" (i + 1) v
          | Error e -> Alcotest.failf "degraded pool lost: %s" (Printexc.to_string e))
        again)

(* --- server pool supervision --- *)

let test_server_pool_replaces_a_killed_worker () =
  let pool = Pool.create ~workers:2 ~queue_cap:16 () in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.disarm "server.worker";
      Pool.shutdown pool)
    (fun () ->
      Failpoint.arm ~trigger:(Fault.Nth 1) "server.worker" Fault.Raise;
      let hits = Atomic.make 0 in
      for _ = 1 to 8 do
        Alcotest.(check bool) "submit accepted" true
          (Pool.submit pool (fun () -> Atomic.incr hits))
      done;
      Alcotest.(check bool) "no job lost to the dying worker" true
        (wait_for (fun () -> Atomic.get hits = 8));
      Alcotest.(check bool) "the death is detected and counted" true
        (wait_for (fun () -> Pool.restarts pool >= 1));
      Alcotest.(check int) "pool back at full strength" 2 (Pool.workers pool);
      Alcotest.(check bool) "not degraded" false (Pool.degraded pool);
      Alcotest.(check bool) "server_worker_restarts fault counter" true
        (Fault.count "server_worker_restarts" >= 1))

let test_server_pool_storm_sheds_instead_of_hanging () =
  (* Armed before creation, the loop-top failpoint kills each worker on
     spawn: the supervisor burns through the cap immediately and the
     pool must then refuse work (the accept loop turns that into 503)
     rather than queue jobs nobody will run. *)
  Failpoint.arm "server.worker" Fault.Raise;
  let pool = Pool.create ~workers:1 ~restart_cap:3 ~queue_cap:4 () in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.disarm "server.worker";
      Pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "storm cap trips" true
        (wait_for (fun () -> Pool.degraded pool));
      Alcotest.(check int) "restarts stopped at the cap" 3 (Pool.restarts pool);
      Alcotest.(check int) "no live workers remain" 0 (Pool.workers pool);
      Alcotest.(check bool) "submit refuses: shed, don't strand" false
        (Pool.submit pool (fun () -> ())))

(* --- client retry backoff --- *)

let recording_retry ?max_attempts ?base_delay_ms ?max_delay_ms script =
  let sleeps = ref [] and calls = ref [] in
  let result =
    Client.with_retry ?max_attempts ?base_delay_ms ?max_delay_ms
      ~sleep:(fun ms -> sleeps := ms :: !sleeps)
      (fun ~attempt ->
        calls := attempt :: !calls;
        script attempt)
  in
  (result, List.rev !calls, List.rev !sleeps)

let test_retry_backoff_schedule () =
  let result, calls, sleeps =
    recording_retry ~max_attempts:5 ~base_delay_ms:50 ~max_delay_ms:2000
      (fun attempt ->
        if attempt < 3 then Error "connection refused" else Ok (200, [], "ok"))
  in
  Alcotest.(check bool) "final attempt's result" true
    (result = Ok (200, [], "ok"));
  Alcotest.(check (list int)) "attempts" [ 0; 1; 2; 3 ] calls;
  Alcotest.(check (list int)) "deterministic doubling" [ 50; 100; 200 ] sleeps

let test_retry_caps_and_gives_up () =
  let result, calls, sleeps =
    recording_retry ~max_attempts:6 ~base_delay_ms:50 ~max_delay_ms:300
      (fun _ -> Error "still down")
  in
  Alcotest.(check bool) "last error surfaces" true (result = Error "still down");
  Alcotest.(check int) "exactly max_attempts calls" 6 (List.length calls);
  Alcotest.(check (list int)) "doubling clamps at the cap"
    [ 50; 100; 200; 300; 300 ] sleeps

let test_retry_honors_retry_after () =
  let shed = Ok (503, [ ("Retry-After", "1") ], "") in
  let result, _, sleeps =
    recording_retry ~max_attempts:2 ~base_delay_ms:50 ~max_delay_ms:2000
      (fun _ -> shed)
  in
  Alcotest.(check bool) "503 comes back after the retries" true (result = shed);
  Alcotest.(check (list int)) "Retry-After lengthens the wait" [ 1000 ] sleeps;
  let _, _, capped =
    recording_retry ~max_attempts:2 ~base_delay_ms:50 ~max_delay_ms:300
      (fun _ -> shed)
  in
  Alcotest.(check (list int)) "but never past the cap" [ 300 ] capped

let test_retry_does_not_retry_request_errors () =
  let result, calls, sleeps =
    recording_retry ~max_attempts:5 (fun _ -> Ok (400, [], "bad request"))
  in
  Alcotest.(check bool) "4xx returned immediately" true
    (result = Ok (400, [], "bad request"));
  Alcotest.(check (list int)) "single attempt" [ 0 ] calls;
  Alcotest.(check (list int)) "no sleeping" [] sleeps

(* --- router: structured fault 500s --- *)

let make_request ?(meth = "POST") ?(path = "/query") body =
  { Http.meth; path; query = []; version = "HTTP/1.1"; headers = []; body }

let query_body =
  Json.to_string
    (Json.Obj
       [
         ( "keywords",
           Json.List (List.map (fun k -> Json.String k) Paper.query_keywords) );
       ])

(* A field of the ["error"] envelope; the body carries nothing else. *)
let error_member key body =
  match Json.of_string body with
  | Ok (Json.Obj [ ("error", env) ]) -> Json.member key env
  | Ok _ -> Alcotest.failf "error body is not just the envelope: %s" body
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e body

let test_router_maps_injected_fault_to_structured_500 () =
  Fault.reset_counters ();
  let router = Router.create (Paper.figure1_context ()) in
  Failpoint.with_armed "eval.request" Fault.Raise (fun () ->
      let resp = Router.handle router (make_request query_body) in
      Alcotest.(check int) "engine escape -> 500" 500 resp.Http.status;
      Alcotest.(check bool) "kind is fault_injected" true
        (error_member "kind" resp.Http.resp_body
        = Some (Json.String "fault_injected"));
      Alcotest.(check bool) "site named" true
        (error_member "site" resp.Http.resp_body
        = Some (Json.String "eval.request")));
  (* Disarmed, the same request succeeds: the fault did not poison the
     router or its context. *)
  let resp = Router.handle router (make_request query_body) in
  Alcotest.(check int) "recovers once disarmed" 200 resp.Http.status;
  let page = Router.metrics_page router in
  Alcotest.(check bool) "request_errors on /metrics" true
    (contains ~sub:"faults_request_errors 1" page);
  Alcotest.(check bool) "injected fires labeled by site" true
    (contains ~sub:"faults_injected{site=\"eval.request\"} 1" page)

let test_router_maps_generic_escape_to_internal_500 () =
  let router = Router.create (Paper.figure1_context ()) in
  (* A scorer-free way to force a non-Injected escape: arm the failpoint
     with a Delay through a hook that raises something else. *)
  Failpoint.set_delay_hook (fun _ -> failwith "hook bug");
  Fun.protect
    ~finally:(fun () -> Failpoint.set_delay_hook (fun _ -> ()))
    (fun () ->
      Failpoint.with_armed "eval.request" (Fault.Delay 1) (fun () ->
          let resp = Router.handle router (make_request query_body) in
          Alcotest.(check int) "escape -> 500" 500 resp.Http.status;
          Alcotest.(check bool) "kind is internal" true
            (error_member "kind" resp.Http.resp_body
            = Some (Json.String "internal"))))

let () =
  Alcotest.run "fault"
    [
      ( "failpoint",
        [
          Alcotest.test_case "disarmed is a no-op" `Quick test_disarmed_is_noop;
          Alcotest.test_case "raise" `Quick test_raise_always;
          Alcotest.test_case "nth trigger" `Quick test_nth_trigger;
          Alcotest.test_case "from trigger" `Quick test_from_trigger;
          Alcotest.test_case "key trigger" `Quick test_key_trigger;
          Alcotest.test_case "re-arming resets the counter" `Quick
            test_rearming_resets_the_hit_counter;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "delay hook" `Quick test_delay_hook;
          Alcotest.test_case "spec grammar" `Quick test_arm_spec_grammar;
          Alcotest.test_case "bad spec entries are non-fatal" `Quick
            test_arm_spec_bad_entries_are_reported_not_fatal;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "loader",
        [
          Alcotest.test_case "corrupt files are quarantined" `Quick
            test_loader_quarantines_corrupt_files;
          Alcotest.test_case "duplicate names are quarantined" `Quick
            test_loader_quarantines_duplicate_names;
          Alcotest.test_case "parse.document fires per path" `Quick
            test_loader_parse_failpoint_quarantines_by_path;
          Alcotest.test_case "quarantine closes descriptors" `Quick
            test_loader_quarantine_closes_descriptors;
          Alcotest.test_case "codec read faults become errors" `Quick
            test_codec_read_faults_become_errors;
        ] );
      ( "shard pool",
        [
          Alcotest.test_case "killed worker is replaced, no task lost" `Quick
            test_shard_pool_replaces_a_killed_worker;
          Alcotest.test_case "restart storm degrades to sequential" `Quick
            test_shard_pool_restart_storm_degrades_to_sequential;
        ] );
      ( "server pool",
        [
          Alcotest.test_case "killed worker is replaced, no job lost" `Quick
            test_server_pool_replaces_a_killed_worker;
          Alcotest.test_case "restart storm sheds instead of hanging" `Quick
            test_server_pool_storm_sheds_instead_of_hanging;
        ] );
      ( "client retry",
        [
          Alcotest.test_case "deterministic backoff schedule" `Quick
            test_retry_backoff_schedule;
          Alcotest.test_case "caps and gives up" `Quick
            test_retry_caps_and_gives_up;
          Alcotest.test_case "honors Retry-After" `Quick
            test_retry_honors_retry_after;
          Alcotest.test_case "does not retry request errors" `Quick
            test_retry_does_not_retry_request_errors;
        ] );
      ( "router",
        [
          Alcotest.test_case "injected fault is a structured 500" `Quick
            test_router_maps_injected_fault_to_structured_500;
          Alcotest.test_case "generic escape is an internal 500" `Quick
            test_router_maps_generic_escape_to_internal_500;
        ] );
    ]
