(* Request-scoped telemetry: the flight recorder's ring semantics and
   domain safety, request-id minting/validation, the now-atomic metrics
   instruments hammered from parallel domains, interpolated histogram
   quantiles, Prometheus exposition invariants, and request-id
   propagation into corpus doc_error rows. *)

module Metrics = Xfrag_obs.Metrics
module Prometheus = Xfrag_obs.Prometheus
module Recorder = Xfrag_obs.Recorder
module Reqid = Xfrag_obs.Reqid
module Json = Xfrag_obs.Json
module Corpus = Xfrag_core.Corpus
module Exec = Xfrag_core.Exec
module Fault = Xfrag_fault.Fault
module Failpoint = Xfrag_fault.Fault.Failpoint
module Docgen = Xfrag_workload.Docgen

(* The recorder is process-global and env-gated; unit tests of its
   mechanics force it on and restore the initial state, so the
   XFRAG_RECORDER=0 CI leg still proves the *engine* never needs it. *)
let with_recorder f =
  let was = Recorder.enabled () in
  Recorder.set_enabled true;
  Recorder.clear ();
  Fun.protect
    ~finally:(fun () ->
      Recorder.clear ();
      Recorder.set_enabled was)
    f

(* --- metrics: multi-domain hammer --- *)

let test_metrics_hammer () =
  let reg = Metrics.create () in
  (* Pre-create so the hammer measures instrument mutation, not
     registry get-or-create (itself serialized, exercised below). *)
  let c = Metrics.counter reg "hammer.ops" in
  let g = Metrics.gauge reg "hammer.level" in
  let h = Metrics.histogram reg "hammer.lat" in
  let domains = 4 and per_domain = 25_000 in
  let body () =
    for i = 1 to per_domain do
      Metrics.Counter.incr c;
      Metrics.Counter.add c 2;
      Metrics.Gauge.set g (float_of_int i);
      Metrics.Histogram.observe h 1.0
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn body) in
  List.iter Domain.join ds;
  let total = domains * per_domain in
  Alcotest.(check int) "counter exact under 4 domains" (3 * total)
    (Metrics.Counter.value c);
  Alcotest.(check int) "histogram count exact" total (Metrics.Histogram.count h);
  Alcotest.(check (float 0.0))
    "histogram sum exact (1.0 samples)" (float_of_int total)
    (Metrics.Histogram.sum h);
  Alcotest.(check (list (pair (float 0.0) int)))
    "buckets hold every observation" [ (1.0, total) ]
    (Metrics.Histogram.buckets h);
  let gv = Metrics.Gauge.value g in
  Alcotest.(check bool) "gauge holds one of the written values" true
    (gv >= 1.0 && gv <= float_of_int per_domain)

let test_metrics_concurrent_get_or_create () =
  let reg = Metrics.create () in
  let domains = 4 and per_domain = 1_000 in
  let body () =
    for _ = 1 to per_domain do
      Metrics.Counter.incr (Metrics.counter reg "shared.ops")
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn body) in
  List.iter Domain.join ds;
  (* All domains raced the first creation; exactly one instrument must
     have won and absorbed every increment. *)
  Alcotest.(check int) "one instrument, all increments"
    (domains * per_domain)
    (Metrics.Counter.value (Metrics.counter reg "shared.ops"))

(* --- histogram quantile interpolation --- *)

let test_quantile_interpolation () =
  let h = Metrics.histogram (Metrics.create ()) "q" in
  Alcotest.(check (float 0.0)) "empty" 0.0 (Metrics.Histogram.quantile h 0.5);
  Metrics.Histogram.observe h 5.0;
  (* One sample in (4,8]: q=1 hits the upper bound, q=0.5 lands
     mid-bucket log-linearly. *)
  Alcotest.(check (float 0.0)) "single sample q=1" 8.0
    (Metrics.Histogram.quantile h 1.0);
  Alcotest.(check (float 1e-9))
    "single sample q=0.5 interpolates"
    (4.0 *. Float.sqrt 2.0)
    (Metrics.Histogram.quantile h 0.5)

let test_quantile_monotone_and_bounded () =
  let h = Metrics.histogram (Metrics.create ()) "q2" in
  let prng = ref 12345 in
  let next () =
    prng := (!prng * 1103515245) + 1221;
    float_of_int (abs !prng mod 10_000) +. 1.0
  in
  for _ = 1 to 500 do
    Metrics.Histogram.observe h (next ())
  done;
  let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ] in
  let values = List.map (Metrics.Histogram.quantile h) qs in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone in q" true (monotone values);
  (* Samples live in [1, 10000] ⊂ (0, 2^14]: every interpolated
     quantile must too — the old implementation could only answer
     power-of-two upper bounds. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "within sample range bucketing" true
        (v >= 0.0 && v <= 16384.0))
    values;
  let p50 = Metrics.Histogram.quantile h 0.5 in
  Alcotest.(check bool) "p50 is not a power-of-two bound" true
    (Float.rem p50 1.0 <> 0.0 || p50 < 8192.0)

(* --- Prometheus exposition --- *)

let test_prometheus_histogram_golden () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat{endpoint=\"/q\"}" in
  List.iter (Metrics.Histogram.observe h) [ 1.0; 3.0; 3.5; 100.0 ];
  let expected =
    "# TYPE lat histogram\n\
     lat_bucket{endpoint=\"/q\",le=\"1\"} 1\n\
     lat_bucket{endpoint=\"/q\",le=\"4\"} 3\n\
     lat_bucket{endpoint=\"/q\",le=\"128\"} 4\n\
     lat_bucket{endpoint=\"/q\",le=\"+Inf\"} 4\n\
     lat_sum{endpoint=\"/q\"} 107.5\n\
     lat_count{endpoint=\"/q\"} 4\n"
  in
  Alcotest.(check string) "golden exposition" expected (Prometheus.render reg)

let test_prometheus_histogram_invariants () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "inv" in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 2.0; 2.5; 7.0; 7.5; 300.0 ];
  let page = Prometheus.render reg in
  let lines = String.split_on_char '\n' page in
  let bucket_counts =
    List.filter_map
      (fun l ->
        match String.index_opt l '}' with
        | Some i
          when String.length l > 11
               && String.sub l 0 11 = "inv_bucket{" ->
            int_of_string_opt
              (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      lines
  in
  (* le buckets are cumulative: non-decreasing, ending at +Inf=count. *)
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative buckets" true (nondecreasing bucket_counts);
  Alcotest.(check int) "+Inf equals Histogram.count"
    (Metrics.Histogram.count h)
    (List.nth bucket_counts (List.length bucket_counts - 1));
  let has_line l = List.mem l lines in
  Alcotest.(check bool) "_count agrees" true
    (has_line (Printf.sprintf "inv_count %d" (Metrics.Histogram.count h)));
  Alcotest.(check bool) "_sum agrees" true
    (has_line
       (Printf.sprintf "inv_sum %s"
          (let s = Metrics.Histogram.sum h in
           if Float.is_integer s then Printf.sprintf "%.0f" s
           else Printf.sprintf "%.17g" s)))

let test_prometheus_label_escaping () =
  Alcotest.(check string)
    "backslash, quote, newline" "a\\\"b\\\\c\\nd"
    (Prometheus.escape_label_value "a\"b\\c\nd");
  (* Bytes OCaml's %S would mangle into \ddd must pass through. *)
  Alcotest.(check string) "high bytes verbatim" "caf\xc3\xa9"
    (Prometheus.escape_label_value "caf\xc3\xa9");
  Alcotest.(check string) "tab verbatim" "a\tb"
    (Prometheus.escape_label_value "a\tb")

(* --- request ids --- *)

let test_reqid_mint_and_validate () =
  let a = Reqid.mint () and b = Reqid.mint () in
  Alcotest.(check bool) "minted ids are distinct" true (a <> b);
  Alcotest.(check bool) "minted ids validate" true
    (Reqid.valid a && Reqid.valid b);
  Alcotest.(check bool) "minted ids have the req- prefix" true
    (String.length a > 4 && String.sub a 0 4 = "req-");
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "reject %S" id) false
        (Reqid.valid id))
    [
      "";
      "has space";
      "semi;colon";
      "new\nline";
      "quote\"";
      String.make 129 'a';
      "caf\xc3\xa9";
    ];
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "accept %S" id) true
        (Reqid.valid id))
    [ "abc"; "A-b_c.9"; String.make 128 'x' ]

let test_reqid_accept_or_mint () =
  Alcotest.(check string) "valid inbound honored" "client-77"
    (Reqid.accept_or_mint (Some "client-77"));
  let minted = Reqid.accept_or_mint (Some "bad id!") in
  Alcotest.(check bool) "invalid inbound replaced" true
    (minted <> "bad id!" && Reqid.valid minted);
  Alcotest.(check bool) "absent inbound minted" true
    (Reqid.valid (Reqid.accept_or_mint None))

(* --- flight recorder --- *)

let test_recorder_basics () =
  with_recorder (fun () ->
      Recorder.record ~endpoint:"/query" ~strategy:"auto" ~eval_ns:5_000
        ~total_ns:9_000 ~hits:3 ~status:200 ~id:"r1" ~outcome:"ok" ();
      Recorder.record ~endpoint:"/query" ~eval_ns:90_000 ~total_ns:120_000
        ~status:200 ~id:"r2" ~outcome:"ok" ();
      Recorder.record ~endpoint:"/corpus/query" ~shards:4 ~status:500
        ~site:"eval.request" ~id:"r3" ~outcome:"fault" ();
      let evs = Recorder.events () in
      Alcotest.(check int) "three retained" 3 (List.length evs);
      Alcotest.(check (list string))
        "ordered by sequence" [ "r1"; "r2"; "r3" ]
        (List.map (fun e -> e.Recorder.id) evs);
      (match Recorder.find "r3" with
      | None -> Alcotest.fail "find r3"
      | Some e ->
          Alcotest.(check string) "outcome" "fault" e.Recorder.outcome;
          Alcotest.(check string) "site" "eval.request" e.Recorder.site;
          Alcotest.(check int) "shards" 4 e.Recorder.shards);
      Alcotest.(check int) "last 2" 2 (List.length (Recorder.last 2));
      Alcotest.(check (list string))
        "slow threshold filters" [ "r2" ]
        (List.map
           (fun e -> e.Recorder.id)
           (Recorder.slow ~threshold_ns:100_000));
      (* JSON shape: flat object, site only when set. *)
      let j = Recorder.to_json (Option.get (Recorder.find "r1")) in
      Alcotest.(check (option string))
        "json id" (Some "r1")
        (Option.bind (Json.member "id" j) Json.to_string_opt);
      Alcotest.(check bool) "no site field when empty" true
        (Json.member "site" j = None);
      let j3 = Recorder.to_json (Option.get (Recorder.find "r3")) in
      Alcotest.(check (option string))
        "site surfaces" (Some "eval.request")
        (Option.bind (Json.member "site" j3) Json.to_string_opt))

let test_recorder_disabled_is_noop () =
  with_recorder (fun () ->
      Recorder.set_enabled false;
      Recorder.record ~id:"ghost" ~outcome:"ok" ();
      Alcotest.(check int) "nothing retained while disabled" 0
        (List.length (Recorder.events ()));
      Recorder.set_enabled true;
      Recorder.record ~id:"real" ~outcome:"ok" ();
      Alcotest.(check int) "recording resumes" 1
        (List.length (Recorder.events ())))

let test_recorder_overwrites_oldest () =
  with_recorder (fun () ->
      let cap = Recorder.capacity () in
      for i = 1 to cap + 50 do
        Recorder.record ~id:(Printf.sprintf "e%d" i) ~outcome:"ok" ()
      done;
      let evs = Recorder.events () in
      Alcotest.(check bool) "bounded by capacity" true
        (List.length evs <= cap);
      (* The newest write always survives; the oldest is gone. *)
      Alcotest.(check bool) "newest retained" true
        (Recorder.find (Printf.sprintf "e%d" (cap + 50)) <> None);
      Alcotest.(check (option string)) "oldest overwritten" None
        (Option.map (fun e -> e.Recorder.id) (Recorder.find "e1")))

(* One ring for every domain: a single domain's writes fill all
   [capacity] slots (256 unless XFRAG_RECORDER sets another size), and
   once it wraps the ring holds exactly the newest [capacity] events. *)
let test_recorder_keeps_newest_capacity () =
  with_recorder (fun () ->
      let cap = Recorder.capacity () in
      List.iter
        (fun n ->
          Recorder.clear ();
          for i = 0 to n - 1 do
            Recorder.record ~id:(Printf.sprintf "e%d" i) ~outcome:"ok" ()
          done;
          let first = max 0 (n - cap) in
          Alcotest.(check (list int))
            (Printf.sprintf "%d records keep seq %d..%d" n first (n - 1))
            (List.init (n - first) (fun i -> first + i))
            (List.map (fun e -> e.Recorder.seq) (Recorder.events ())))
        [ 100; 300 ])

let test_recorder_multi_domain () =
  with_recorder (fun () ->
      let writers = 4 and per_writer = 50 in
      let ds =
        List.init writers (fun w ->
            Domain.spawn (fun () ->
                for i = 1 to per_writer do
                  Recorder.record
                    ~id:(Printf.sprintf "w%d-%d" w i)
                    ~outcome:"ok" ()
                done))
      in
      List.iter Domain.join ds;
      let evs = Recorder.events () in
      Alcotest.(check bool) "within capacity" true
        (List.length evs <= Recorder.capacity ());
      (* Sequences are unique even under concurrent writers... *)
      let seqs = List.map (fun e -> e.Recorder.seq) evs in
      Alcotest.(check int) "unique seqs"
        (List.length seqs)
        (List.length (List.sort_uniq compare seqs));
      (* ...and every writer's final event survives: the 200 writes
         fit the ring. *)
      for w = 0 to writers - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "writer %d's last event retained" w)
          true
          (Recorder.find (Printf.sprintf "w%d-%d" w per_writer) <> None)
      done)

(* --- request id reaches doc_error rows --- *)

let test_doc_error_carries_request_id () =
  let corpus =
    Corpus.of_documents
      [
        ("ok.xml", Docgen.with_planted_keywords
                     { Docgen.default with seed = 7; sections = 2 }
                     ~plant:[ ("mangrove", 2) ]);
        ("bad.xml", Docgen.with_planted_keywords
                      { Docgen.default with seed = 8; sections = 2 }
                      ~plant:[ ("mangrove", 1) ]);
      ]
  in
  let request =
    Exec.Request.default
    |> Exec.Request.with_keywords [ "mangrove" ]
    |> Exec.Request.with_id "trace-me-42"
  in
  let outcome =
    Failpoint.with_armed ~trigger:(Fault.Key "bad.xml") "eval.document"
      Fault.Raise (fun () -> Corpus.run ~shards:2 corpus request)
  in
  match outcome.Corpus.errors with
  | [ e ] ->
      Alcotest.(check string) "victim" "bad.xml" e.Corpus.err_doc;
      Alcotest.(check string) "doc_error carries the request id"
        "trace-me-42" e.Corpus.err_request_id
  | errs -> Alcotest.failf "expected one doc_error, got %d" (List.length errs)

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "multi-domain hammer, exact counts" `Slow
            test_metrics_hammer;
          Alcotest.test_case "concurrent get-or-create" `Quick
            test_metrics_concurrent_get_or_create;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "log-linear interpolation" `Quick
            test_quantile_interpolation;
          Alcotest.test_case "monotone and bounded" `Quick
            test_quantile_monotone_and_bounded;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "histogram golden" `Quick
            test_prometheus_histogram_golden;
          Alcotest.test_case "cumulative sum/count invariants" `Quick
            test_prometheus_histogram_invariants;
          Alcotest.test_case "label value escaping" `Quick
            test_prometheus_label_escaping;
        ] );
      ( "reqid",
        [
          Alcotest.test_case "mint and validate" `Quick
            test_reqid_mint_and_validate;
          Alcotest.test_case "accept or mint" `Quick test_reqid_accept_or_mint;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "record, find, last, slow" `Quick
            test_recorder_basics;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_recorder_disabled_is_noop;
          Alcotest.test_case "overwrites oldest" `Quick
            test_recorder_overwrites_oldest;
          Alcotest.test_case "one domain keeps the newest capacity" `Quick
            test_recorder_keeps_newest_capacity;
          Alcotest.test_case "multi-domain writers" `Quick
            test_recorder_multi_domain;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "doc_error carries request id" `Quick
            test_doc_error_carries_request_id;
        ] );
    ]
