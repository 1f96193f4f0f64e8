(* Tests for the observability subsystem: span tracer semantics, the
   three exporters (golden outputs under a deterministic clock), Chrome
   trace-event schema validity on a real evaluation, the metrics
   registry, Op_stats merge/snapshot, and the guarantee that tracing
   never changes answers. *)

module Trace = Xfrag_obs.Trace
module Clock = Xfrag_obs.Clock
module Json = Xfrag_obs.Json
module Metrics = Xfrag_obs.Metrics
module Export = Xfrag_obs.Export
module Context = Xfrag_core.Context
module Frag_set = Xfrag_core.Frag_set
module Fragment = Xfrag_core.Fragment
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Exec = Xfrag_core.Exec
module Op_stats = Xfrag_core.Op_stats
module Paper = Xfrag_workload.Paper_doc

(* A three-span trace under the counter clock: every clock read advances
   by 1000 ns, so every duration below is exact. *)
let make_trace () =
  let t = Trace.create ~clock:(Clock.counter ()) () in
  Trace.with_span t
    ~attrs:[ ("keywords", Json.String "a b") ]
    "query"
    (fun () ->
      Trace.with_span t "scan" (fun () -> Trace.add_attr t "out" (Json.Int 3));
      Trace.with_span t "join" (fun () -> ()));
  t

(* --- tracer semantics --- *)

let test_span_nesting () =
  let t = make_trace () in
  match Trace.spans t with
  | [ q; s; j ] ->
      Alcotest.(check string) "root name" "query" q.Trace.name;
      Alcotest.(check int) "root parent" (-1) q.Trace.parent;
      Alcotest.(check int) "scan parent" q.Trace.id s.Trace.parent;
      Alcotest.(check int) "join parent" q.Trace.id j.Trace.parent;
      (* clock reads: open q=0, open s=1000, close s=2000, open j=3000,
         close j=4000, close q=5000 *)
      Alcotest.(check int) "root duration" 5000 (Trace.duration_ns q);
      Alcotest.(check int) "scan duration" 1000 (Trace.duration_ns s);
      Alcotest.(check int) "root_ns" 5000 (Trace.root_ns t);
      Alcotest.(check bool) "mid-span attr landed on scan" true
        (List.mem_assoc "out" s.Trace.attrs)
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_span_closed_on_exception () =
  let t = Trace.create ~clock:(Clock.counter ()) () in
  (try
     Trace.with_span t "outer" (fun () ->
         Trace.with_span t "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  List.iter
    (fun (sp : Trace.span) ->
      Alcotest.(check bool)
        (sp.Trace.name ^ " closed")
        true
        (sp.Trace.stop_ns >= sp.Trace.start_ns))
    (Trace.spans t);
  (* the stack unwound completely: a new span is a root again *)
  Trace.with_span t "after" (fun () -> ());
  let after = List.nth (Trace.spans t) 2 in
  Alcotest.(check int) "post-exception span is a root" (-1) after.Trace.parent

let test_disabled_is_inert () =
  let t = Trace.disabled in
  Alcotest.(check bool) "not enabled" false (Trace.is_enabled t);
  let r = Trace.with_span t "anything" (fun () -> 42) in
  Alcotest.(check int) "body result passes through" 42 r;
  Trace.add_attr t "k" (Json.Int 1);
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.spans t))

(* --- exporters (golden under the counter clock) --- *)

let test_jsonl_golden () =
  let expected =
    String.concat "\n"
      [
        {|{"id":0,"parent":null,"name":"query","start_ns":0,"dur_ns":5000,"attrs":{"keywords":"a b"}}|};
        {|{"id":1,"parent":0,"name":"scan","start_ns":1000,"dur_ns":1000,"attrs":{"out":3}}|};
        {|{"id":2,"parent":0,"name":"join","start_ns":3000,"dur_ns":1000,"attrs":{}}|};
        "";
      ]
  in
  Alcotest.(check string) "jsonl" expected (Export.to_jsonl (make_trace ()))

let test_chrome_golden () =
  let expected =
    {|{"traceEvents":[{"name":"query","cat":"xfrag","ph":"X","ts":0.0,"dur":5.0,"pid":1,"tid":1,"args":{"keywords":"a b"}},{"name":"scan","cat":"xfrag","ph":"X","ts":1.0,"dur":1.0,"pid":1,"tid":1,"args":{"out":3}},{"name":"join","cat":"xfrag","ph":"X","ts":3.0,"dur":1.0,"pid":1,"tid":1,"args":{}}],"displayTimeUnit":"ns"}|}
  in
  Alcotest.(check string) "chrome" expected (Export.to_chrome (make_trace ()))

let test_tree_golden () =
  let out = Format.asprintf "%a" Export.pp_tree (make_trace ()) in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  Alcotest.(check bool) "root line" true
    (String.length (List.nth lines 0) > 0
    && String.sub (List.nth lines 0) 0 5 = "query");
  Alcotest.(check bool) "child indented" true
    (String.sub (List.nth lines 1) 0 6 = "  scan")

(* --- a minimal JSON reader, enough to validate exporter output --- *)

module Jread = struct
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = Some c then advance ()
      else fail (Printf.sprintf "expected %c" c)
    in
    let literal lit v =
      if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
      then begin
        pos := !pos + String.length lit;
        v
      end
      else fail ("expected " ^ lit)
    in
    let string_lit () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
            advance ();
            (match peek () with
            | Some 'n' -> Buffer.add_char buf '\n'
            | Some 't' -> Buffer.add_char buf '\t'
            | Some 'r' -> Buffer.add_char buf '\r'
            | Some 'u' ->
                advance ();
                advance ();
                advance ();
                Buffer.add_char buf '?'
            | Some c -> Buffer.add_char buf c
            | None -> fail "bad escape");
            advance ();
            go ()
        | Some c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      let rec go () =
        match peek () with
        | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (string_lit ())
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec items acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ]"
            in
            Arr (items [])
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec fields acc =
              skip_ws ();
              let k = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected , or }"
            in
            Obj (fields [])
          end
      | Some ('0' .. '9' | '-') -> Num (number ())
      | _ -> fail "unexpected character"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
end

(* Record a real evaluation and check the Chrome export against the
   trace-event schema: complete events with the required fields. *)
let test_chrome_schema_on_real_trace () =
  let ctx = Paper.figure1_context () in
  let q = Query.make ~filter:(Filter.Size_at_most 3) Paper.query_keywords in
  let trace = Trace.create () in
  ignore
    (Eval.exec ctx
       Exec.Request.(of_query q |> with_strategy Eval.Semi_naive |> with_trace trace));
  let parsed = Jread.parse (Export.to_chrome trace) in
  match parsed with
  | Jread.Obj fields ->
      Alcotest.(check bool) "displayTimeUnit" true
        (List.assoc_opt "displayTimeUnit" fields = Some (Jread.Str "ns"));
      (match List.assoc_opt "traceEvents" fields with
      | Some (Jread.Arr events) ->
          Alcotest.(check bool) "has events" true (List.length events > 0);
          List.iter
            (fun ev ->
              match ev with
              | Jread.Obj f ->
                  let str k =
                    match List.assoc_opt k f with
                    | Some (Jread.Str s) -> s
                    | _ -> Alcotest.failf "event field %s missing/not string" k
                  in
                  let num k =
                    match List.assoc_opt k f with
                    | Some (Jread.Num x) -> x
                    | _ -> Alcotest.failf "event field %s missing/not number" k
                  in
                  Alcotest.(check string) "ph" "X" (str "ph");
                  Alcotest.(check bool) "name non-empty" true (str "name" <> "");
                  Alcotest.(check bool) "dur >= 0" true (num "dur" >= 0.0);
                  ignore (num "ts");
                  ignore (num "pid");
                  ignore (num "tid");
                  (match List.assoc_opt "args" f with
                  | Some (Jread.Obj _) -> ()
                  | _ -> Alcotest.fail "args missing/not object")
              | _ -> Alcotest.fail "event not an object")
            events
      | _ -> Alcotest.fail "traceEvents missing/not a list")
  | _ -> Alcotest.fail "top level not an object"

let test_jsonl_lines_parse () =
  let ctx = Paper.figure1_context () in
  let q = Query.make ~filter:(Filter.Size_at_most 3) Paper.query_keywords in
  let trace = Trace.create () in
  ignore (Eval.exec ctx Exec.Request.(of_query q |> with_trace trace));
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Export.to_jsonl trace))
  in
  Alcotest.(check int) "one line per span" (List.length (Trace.spans trace))
    (List.length lines);
  List.iter
    (fun line ->
      match Jread.parse line with
      | Jread.Obj f ->
          List.iter
            (fun k ->
              Alcotest.(check bool) (k ^ " present") true (List.mem_assoc k f))
            [ "id"; "parent"; "name"; "start_ns"; "dur_ns"; "attrs" ]
      | _ -> Alcotest.fail "line not an object")
    lines

(* --- tracing must not change answers --- *)

let render ctx answers =
  String.concat "\n"
    (List.map (Format.asprintf "%a" (Fragment.pp_labeled ctx)) (Frag_set.elements answers))

let test_tracing_preserves_answers () =
  let ctx = Paper.figure1_context () in
  let q = Query.make ~filter:(Filter.Size_at_most 3) Paper.query_keywords in
  List.iter
    (fun strategy ->
      let request = Exec.Request.(of_query q |> with_strategy strategy) in
      let plain = Eval.exec ctx request in
      let traced =
        Eval.exec ctx (Exec.Request.with_trace (Trace.create ()) request)
      in
      Alcotest.(check bool)
        (Eval.strategy_name strategy ^ " answers equal")
        true
        (Frag_set.equal plain.Eval.answers traced.Eval.answers);
      Alcotest.(check string)
        (Eval.strategy_name strategy ^ " rendering identical")
        (render ctx plain.Eval.answers)
        (render ctx traced.Eval.answers))
    (Eval.Auto :: Eval.all_strategies)

(* --- metrics registry --- *)

let test_counter_and_gauge () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "ops" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  Alcotest.(check int) "counter value" 5
    (Metrics.Counter.value (Metrics.counter reg "ops"));
  Metrics.Gauge.set (Metrics.gauge reg "level") 2.5;
  Alcotest.(check (float 0.0)) "gauge value" 2.5
    (Metrics.Gauge.value (Metrics.gauge reg "level"));
  Alcotest.check_raises "type clash"
    (Invalid_argument "Metrics.gauge: \"ops\" is a counter") (fun () ->
      ignore (Metrics.gauge reg "ops"))

let test_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" in
  List.iter (Metrics.Histogram.observe h) [ 1.0; 3.0; 3.5; 100.0 ];
  Alcotest.(check int) "count" 4 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 107.5 (Metrics.Histogram.sum h);
  (* buckets: 1.0 -> ub 1; 3.0, 3.5 -> ub 4; 100 -> ub 128 *)
  Alcotest.(check (list (pair (float 0.0) int)))
    "buckets"
    [ (1.0, 1); (4.0, 2); (128.0, 1) ]
    (Metrics.Histogram.buckets h);
  (* p50: target rank 2 lands mid-bucket in (2,4] -> 2*(4/2)^0.5 via
     log-linear interpolation; p100 is still the top bucket's bound. *)
  Alcotest.(check (float 1e-9))
    "p50"
    (2.0 *. Float.sqrt 2.0)
    (Metrics.Histogram.quantile h 0.5);
  Alcotest.(check (float 0.0)) "p100" 128.0 (Metrics.Histogram.quantile h 1.0)

let test_metrics_json () =
  let reg = Metrics.create () in
  Metrics.add_assoc ~prefix:"ops." reg [ ("joins", 7); ("rounds", 2) ];
  Metrics.Gauge.set (Metrics.gauge reg "answers") 4.0;
  Metrics.Histogram.observe (Metrics.histogram reg "lat") 3.0;
  let expected =
    {|{"counters":{"ops.joins":7,"ops.rounds":2},"gauges":{"answers":4.0},"histograms":{"lat":{"count":1,"sum":3.0,"buckets":[[4.0,1]]}}}|}
  in
  Alcotest.(check string) "json" expected (Json.to_string (Metrics.to_json reg))

(* --- Op_stats merge / snapshot --- *)

let test_op_stats_to_assoc () =
  let s = Op_stats.create () in
  s.Op_stats.fragment_joins <- 3;
  s.Op_stats.candidates <- 2;
  s.Op_stats.reduce_subset_checks <- 9;
  s.Op_stats.cache_hits <- 4;
  Alcotest.(check (list (pair string int)))
    "assoc order and values"
    [
      ("fragment_joins", 3);
      ("candidates", 2);
      ("duplicates", 0);
      ("pruned", 0);
      ("filtered", 0);
      ("fixpoint_rounds", 0);
      ("reduce_subset_checks", 9);
      ("cache_hits", 4);
      ("cache_misses", 0);
      ("cache_evictions", 0);
      ("cache_rejected", 0);
    ]
    (Op_stats.to_assoc s)

let test_op_stats_merge () =
  let a = Op_stats.create () and b = Op_stats.create () in
  a.Op_stats.fragment_joins <- 5;
  a.Op_stats.pruned <- 1;
  b.Op_stats.fragment_joins <- 2;
  b.Op_stats.duplicates <- 4;
  b.Op_stats.fixpoint_rounds <- 3;
  a.Op_stats.cache_hits <- 1;
  b.Op_stats.cache_hits <- 2;
  b.Op_stats.cache_misses <- 5;
  b.Op_stats.cache_evictions <- 1;
  a.Op_stats.cache_rejected <- 2;
  b.Op_stats.cache_rejected <- 1;
  Op_stats.merge a b;
  Alcotest.(check (list (pair string int)))
    "merged counters"
    [
      ("fragment_joins", 7);
      ("candidates", 0);
      ("duplicates", 4);
      ("pruned", 1);
      ("filtered", 0);
      ("fixpoint_rounds", 3);
      ("reduce_subset_checks", 0);
      ("cache_hits", 3);
      ("cache_misses", 5);
      ("cache_evictions", 1);
      ("cache_rejected", 3);
    ]
    (Op_stats.to_assoc a);
  (* src is unchanged *)
  Alcotest.(check int) "src untouched" 2 b.Op_stats.fragment_joins

(* --- JSON emitter corner cases --- *)

let test_json_escaping () =
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd"|}
    (Json.to_string (Json.String "a\"b\\c\nd"));
  Alcotest.(check string) "control chars" {|"\u0001"|}
    (Json.to_string (Json.String "\001"));
  Alcotest.(check string) "integer float" "2.0" (Json.to_string (Json.Float 2.0));
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan))

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting and durations" `Quick test_span_nesting;
          Alcotest.test_case "spans close on exception" `Quick
            test_span_closed_on_exception;
          Alcotest.test_case "disabled tracer is inert" `Quick test_disabled_is_inert;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
          Alcotest.test_case "tree rendering" `Quick test_tree_golden;
          Alcotest.test_case "chrome schema on real trace" `Quick
            test_chrome_schema_on_real_trace;
          Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
        ] );
      ( "eval",
        [
          Alcotest.test_case "tracing preserves answers" `Quick
            test_tracing_preserves_answers;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "to_json" `Quick test_metrics_json;
        ] );
      ( "op_stats",
        [
          Alcotest.test_case "to_assoc" `Quick test_op_stats_to_assoc;
          Alcotest.test_case "merge" `Quick test_op_stats_merge;
        ] );
      ( "json",
        [ Alcotest.test_case "escaping and floats" `Quick test_json_escaping ] );
    ]
