module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Eval = Xfrag_core.Eval
module Exec = Xfrag_core.Exec
module Explain = Xfrag_core.Explain
module Corpus = Xfrag_core.Corpus
module Deadline = Xfrag_core.Deadline
module Op_stats = Xfrag_core.Op_stats
module Join_cache = Xfrag_core.Join_cache
module Ranking = Xfrag_baselines.Ranking
module Doctree = Xfrag_doctree.Doctree
module Json = Xfrag_obs.Json
module Metrics = Xfrag_obs.Metrics
module Prometheus = Xfrag_obs.Prometheus
module Clock = Xfrag_obs.Clock
module Recorder = Xfrag_obs.Recorder
module Reqid = Xfrag_obs.Reqid
module Fault = Xfrag_fault.Fault

let default_slow_ms = 100

type t = {
  ctx : Context.t;
  corpus : Corpus.t Atomic.t;
      (* The serving snapshot.  Readers [Atomic.get] it once per request
         and evaluate against that value for the whole request — a
         concurrent writer publishing a new corpus can never tear an
         in-flight query (the snapshot is an immutable functional
         value).  An empty corpus doubles as "no corpus": /corpus/query
         404s on size 0, exactly as the old [option] did, but a PUT can
         bootstrap a collection onto a server started without one. *)
  writer_lock : Mutex.t;
      (* Serializes mutations (read-modify-write of [corpus] plus the
         join-cache partition retirement).  Writers are expected to be
         rare relative to reads; readers never take it. *)
  shards : int option;
  cache : Join_cache.t option;
  default_deadline_ns : int option;
  slow_ns : int option;
  access_log : out_channel option;
  log_lock : Mutex.t;
  mutable queue_depth : unit -> int;
  registry : Metrics.t;
  reg_lock : Mutex.t;
      (* Instruments are individually domain-safe, but composite
         updates (a request's counter + histogram, the scrape-time
         gauge/sync sweep) should land atomically with respect to a
         concurrent /metrics render; they go through this lock. *)
}

let create ?cache ?default_deadline_ns ?(queue_depth = fun () -> 0) ?corpus
    ?shards ?slow_ms ?access_log ctx =
  {
    ctx;
    corpus = Atomic.make (Option.value corpus ~default:Corpus.empty);
    writer_lock = Mutex.create ();
    shards;
    cache;
    default_deadline_ns;
    slow_ns =
      (match slow_ms with
      | Some ms when ms >= 0 -> Some (ms * 1_000_000)
      | _ -> None);
    access_log;
    log_lock = Mutex.create ();
    queue_depth;
    registry = Metrics.create ();
    reg_lock = Mutex.create ();
  }

let set_queue_depth t f = t.queue_depth <- f

let locked t f =
  Mutex.lock t.reg_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.reg_lock) f

(* /corpus/docs/{name}: the document name is the final path segment,
   taken verbatim (no percent-decoding; names containing '/' are not
   addressable).  [None] for /corpus/docs itself and for empty names. *)
let docs_prefix = "/corpus/docs/"

let doc_path_name path =
  let pl = String.length docs_prefix in
  if String.length path > pl && String.sub path 0 pl = docs_prefix then
    let name = String.sub path pl (String.length path - pl) in
    if name = "" || String.contains name '/' then None else Some name
  else None

(* Metric labels come from this fixed set, never the raw request path:
   untrusted clients probing random paths must not be able to mint new
   registry series (unbounded memory, unbounded /metrics page).  All
   per-document paths share one label — document names are
   client-chosen and unbounded. *)
let endpoint_label path =
  match path with
  | "/query" | "/explain" | "/corpus/query" | "/corpus/docs"
  | "/corpus/stats" | "/healthz" | "/metrics" | "/debug/requests"
  | "/debug/slow" ->
      path
  | _ when doc_path_name path <> None -> "/corpus/docs/{name}"
  | _ -> "other"

let record t ~endpoint ~status ~ns =
  locked t (fun () ->
      Metrics.Counter.incr
        (Metrics.counter t.registry
           (Printf.sprintf "server.requests{endpoint=%S,status=\"%d\"}" endpoint
              status));
      Metrics.Histogram.observe
        (Metrics.histogram t.registry
           (Printf.sprintf "server.latency_ns{endpoint=%S}" endpoint))
        (float_of_int ns))

let record_shed t =
  locked t (fun () ->
      Metrics.Counter.incr (Metrics.counter t.registry "server.shed");
      Metrics.Counter.incr
        (Metrics.counter t.registry
           "server.requests{endpoint=\"*\",status=\"503\"}"))

(* Sharded-execution telemetry: the shard count of the last corpus
   query, per-shard wall times, and the k-way-merge cost.  Surfaces in
   the registry snapshot and as corpus_shards / corpus_shard_elapsed_ns
   / corpus_merge_ns on the Prometheus page. *)
let record_corpus t (o : Corpus.outcome) =
  locked t (fun () ->
      Metrics.Gauge.set
        (Metrics.gauge t.registry "corpus.shards")
        (float_of_int (List.length o.Corpus.shard_reports));
      List.iter
        (fun (sr : Corpus.shard_report) ->
          Metrics.Histogram.observe
            (Metrics.histogram t.registry "corpus.shard_elapsed_ns")
            (float_of_int sr.Corpus.shard_elapsed_ns))
        o.Corpus.shard_reports;
      Metrics.Histogram.observe
        (Metrics.histogram t.registry "corpus.merge_ns")
        (float_of_int o.Corpus.merge_ns);
      if o.Corpus.deadline_expired then
        Metrics.Counter.incr
          (Metrics.counter t.registry "corpus.deadline_expired");
      match o.Corpus.routing with
      | None -> ()
      | Some r ->
          Metrics.Gauge.set
            (Metrics.gauge t.registry "index.candidates")
            (float_of_int r.Corpus.candidates);
          Metrics.Counter.add
            (Metrics.counter t.registry "index.routed_out")
            r.Corpus.routed_out;
          Metrics.Counter.add
            (Metrics.counter t.registry "index.bound_skips")
            r.Corpus.bound_skips)

let metrics_page t =
  locked t (fun () ->
      Metrics.Gauge.set
        (Metrics.gauge t.registry "server.queue_depth")
        (float_of_int (t.queue_depth ()));
      (match t.cache with
      | None -> ()
      | Some c ->
          (* Safe against concurrent workers: counters are [Atomic] and
             the entry/interned gauges are summed under stripe locks. *)
          Metrics.sync_assoc ~prefix:"server." t.registry
            (Join_cache.metrics_assoc c));
      (* Fault counters (worker restarts, quarantined docs, injected
         fires) are process-global; mirror them under faults.* so chaos
         runs can assert on the /metrics page. *)
      Metrics.sync_assoc ~prefix:"faults." t.registry (Fault.counters ());
      Metrics.Gauge.set
        (Metrics.gauge t.registry "corpus.docs")
        (float_of_int (Corpus.size (Atomic.get t.corpus)));
      (* Corpus-index shape: 0s when the corpus is unindexed (index
         maintenance failed) or the server has no corpus, so a scrape
         can tell "routing off" from "index empty". *)
      (match Corpus.index (Atomic.get t.corpus) with
      | None -> ()
      | Some idx ->
          Metrics.Gauge.set
            (Metrics.gauge t.registry "index.docs")
            (float_of_int (Xfrag_index.Corpus_index.doc_count idx));
          Metrics.Gauge.set
            (Metrics.gauge t.registry "index.postings")
            (float_of_int (Xfrag_index.Corpus_index.total_postings idx));
          Metrics.Gauge.set
            (Metrics.gauge t.registry "index.vocabulary")
            (float_of_int (Xfrag_index.Corpus_index.vocabulary_size idx)));
      Prometheus.render t.registry)

(* --- per-request telemetry accumulator ---

   One mutable scratch record per in-flight request, filled by whichever
   handler runs and flushed into the flight recorder (plus access log)
   by [handle] — request-local, so unsynchronized. *)

type pending = {
  mutable p_strategy : string;
  mutable p_shards : int;
  mutable p_parse_ns : int;
  mutable p_eval_ns : int;
  mutable p_merge_ns : int;
  mutable p_hits : int;
  mutable p_cache_hits : int;
  mutable p_cache_misses : int;
  mutable p_doc_errors : int;
  mutable p_routed_out : int;
  mutable p_bound_skips : int;
  mutable p_outcome : string;  (* "" = derive from status *)
  mutable p_site : string;
}

let new_pending () =
  {
    p_strategy = "";
    p_shards = 0;
    p_parse_ns = 0;
    p_eval_ns = 0;
    p_merge_ns = 0;
    p_hits = 0;
    p_cache_hits = 0;
    p_cache_misses = 0;
    p_doc_errors = 0;
    p_routed_out = 0;
    p_bound_skips = 0;
    p_outcome = "";
    p_site = "";
  }

(* Join-cache attribution is the request's own: the cache charges every
   hit and miss to the [Op_stats] of the evaluation that made it, so
   concurrent requests never blend into each other's wide events. *)
let charge_stats p (s : Op_stats.t) =
  p.p_cache_hits <- p.p_cache_hits + s.Op_stats.cache_hits;
  p.p_cache_misses <- p.p_cache_misses + s.Op_stats.cache_misses

(* --- JSON plumbing --- *)

let json_response ?(headers = []) ~status j =
  Http.response
    ~headers:(("Content-Type", "application/json") :: headers)
    ~status
    (Json.to_string j ^ "\n")

(* --- the uniform error envelope ---

   Every error body, on every endpoint and status, is
   [{"error": {"kind", "message", "request_id", ...}}]: [kind] is a
   stable machine-readable discriminator, [message] the human-oriented
   text, and [request_id] (stamped at [handle]'s single exit) joins the
   failure to its wide event.  Fault-injected 500s add ["site"]; 405s
   add ["allow"]. *)
let kind_of_status = function
  | 400 -> "bad_request"
  | 404 -> "not_found"
  | 405 -> "method_not_allowed"
  | 408 -> "deadline"
  | 409 -> "conflict"
  | 413 -> "payload_too_large"
  | 503 -> "overloaded"
  | s when s >= 500 -> "internal"
  | _ -> "error"

let error_json ~kind ?site ?(extra = []) msg =
  let site_fields =
    match site with None -> [] | Some s -> [ ("site", Json.String s) ]
  in
  Json.Obj
    [
      ( "error",
        Json.Obj
          ([ ("kind", Json.String kind); ("message", Json.String msg) ]
          @ site_fields @ extra) );
    ]

let error_response ?kind ?site ?extra ?headers ~status msg =
  let kind = match kind with Some k -> k | None -> kind_of_status status in
  json_response ?headers ~status (error_json ~kind ?site ?extra msg)

(* The envelope as a raw body line, for failures the listener answers
   before any request reaches the router (shed 503s, unparsable 400s,
   read-timeout 408s): same shape, request id already known. *)
let error_body ~kind ~id msg =
  Json.to_string (error_json ~kind ~extra:[ ("request_id", Json.String id) ] msg)
  ^ "\n"

exception Reject of Http.response

let reject ?kind ~status msg = raise (Reject (error_response ?kind ~status msg))

(* --- request decoding ---

   All body decoding is Exec.Request's single codec; the router only
   layers the [?deadline_ns] query-parameter override on top.  The
   validation rules (keyword shape, filter syntax, deadline_ms
   overflow) live in Exec and surface here as 400s. *)

let apply_deadline_param req r =
  match Http.query_param req "deadline_ns" with
  | None -> r
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> Exec.Request.with_deadline (Deadline.after n) r
      | _ -> reject ~status:400 "deadline_ns must be a non-negative integer")

let request_of_json t req j =
  match
    Exec.Request.of_json ?default_deadline_ns:t.default_deadline_ns j
  with
  | Ok r -> apply_deadline_param req r
  | Error msg -> reject ~status:400 msg

let body_json req =
  match Json.of_string req.Http.body with
  | Ok j -> j
  | Error msg -> reject ~status:400 ("bad JSON body: " ^ msg)

let request_of_body t p ~id req =
  let t0 = Clock.monotonic () in
  Fun.protect
    ~finally:(fun () -> p.p_parse_ns <- Clock.monotonic () - t0)
    (fun () -> Exec.Request.with_id id (request_of_json t req (body_json req)))

(* --- /query --- *)

let fragment_json ctx f =
  let root = Fragment.root f in
  Json.Obj
    [
      ("root", Json.Int root);
      ("label", Json.String (Doctree.label ctx.Context.tree root));
      ( "nodes",
        Json.List
          (List.map (fun n -> Json.Int n)
             (Xfrag_util.Int_sorted.to_list (Fragment.nodes f))) );
    ]

let stats_json stats =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Op_stats.to_assoc stats))

let handle_query t p ~id req =
  let r = request_of_body t p ~id req in
  let r = Exec.Request.with_cache t.cache r in
  let outcome =
    try Eval.exec t.ctx r with Invalid_argument msg -> reject ~status:400 msg
  in
  charge_stats p outcome.Eval.stats;
  let answers = Frag_set.elements outcome.Eval.answers in
  let count = List.length answers in
  p.p_strategy <- Eval.strategy_name outcome.Eval.strategy_used;
  p.p_eval_ns <- outcome.Eval.elapsed_ns;
  p.p_hits <- count;
  let shown =
    match r.Exec.Request.limit with
    | Some n when count > n -> List.filteri (fun i _ -> i < n) answers
    | _ -> answers
  in
  json_response ~status:200
    (Json.Obj
       [
         ("request_id", Json.String id);
         ("count", Json.Int count);
         ( "strategy",
           Json.String (Eval.strategy_name outcome.Eval.strategy_used) );
         ("elapsed_ns", Json.Int outcome.Eval.elapsed_ns);
         ("answers", Json.List (List.map (fragment_json t.ctx) shown));
         ("stats", stats_json outcome.Eval.stats);
       ])

(* --- /explain --- *)

let rec explain_node_json (n : Explain.node) =
  Json.Obj
    [
      ("op", Json.String n.Explain.op);
      ("rows", Json.Int n.Explain.rows);
      ("in_rows", Json.List (List.map (fun r -> Json.Int r) n.Explain.in_rows));
      ("self_ns", Json.Int n.Explain.self_ns);
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) n.Explain.counters) );
      ("children", Json.List (List.map explain_node_json n.Explain.children));
    ]

(* One counter summed over the report's operators, probe included: the
   deltas sum exactly to the stats [Eval.exec] charges for the same
   request (property-tested). *)
let explain_counter (report : Explain.report) name =
  let rec sum acc (n : Explain.node) =
    List.fold_left sum
      (acc + Option.value ~default:0 (List.assoc_opt name n.Explain.counters))
      n.Explain.children
  in
  List.fold_left sum 0 (Option.to_list report.Explain.probe @ [ report.Explain.root ])

let handle_explain t p ~id req =
  let r = request_of_body t p ~id req in
  let r = Exec.Request.with_cache t.cache r in
  let report =
    try Explain.analyze_request t.ctx r
    with Invalid_argument msg -> reject ~status:400 msg
  in
  p.p_cache_hits <- explain_counter report "cache_hits";
  p.p_cache_misses <- explain_counter report "cache_misses";
  let strategy = Exec.strategy_name report.Explain.strategy in
  p.p_strategy <- strategy;
  p.p_eval_ns <- report.Explain.total_ns;
  p.p_hits <- Frag_set.cardinal report.Explain.answers;
  let plan_str = Format.asprintf "%a" Xfrag_core.Plan.pp report.Explain.plan in
  json_response ~status:200
    (Json.Obj
       [
         ("request_id", Json.String id);
         ("strategy", Json.String strategy);
         ("plan", Json.String plan_str);
         ("estimated_cost", Json.Float report.Explain.estimated_cost);
         ("total_ns", Json.Int report.Explain.total_ns);
         ("count", Json.Int (Frag_set.cardinal report.Explain.answers));
         ( "probe",
           Option.fold ~none:Json.Null ~some:explain_node_json
             report.Explain.probe );
         ("root", explain_node_json report.Explain.root);
       ])

(* --- /corpus/query --- *)

let max_batch = 32

(* Snapshot pinning: one [Atomic.get] hands the request an immutable
   corpus value it keeps for its whole lifetime — concurrent PUT/DELETE
   publish new snapshots without ever mutating this one. *)
let snapshot t = Atomic.get t.corpus

let corpus_of t =
  let c = snapshot t in
  if Corpus.size c > 0 then c
  else
    reject ~status:404
      "no corpus loaded (serve with multiple FILEs, or PUT /corpus/docs/{name})"

let corpus_hit_json corpus (hit, score) =
  let ctx = Corpus.context corpus hit.Corpus.doc in
  match fragment_json ctx hit.Corpus.fragment with
  | Json.Obj fields ->
      Json.Obj
        (("doc", Json.String hit.Corpus.doc)
        :: ("score", Json.Float score)
        :: fields)
  | j -> j

let doc_error_json (e : Corpus.doc_error) =
  let fields =
    [
      ("doc", Json.String e.Corpus.err_doc);
      ("detail", Json.String e.Corpus.err_detail);
    ]
  in
  Json.Obj
    (if e.Corpus.err_request_id = "" then fields
     else fields @ [ ("request_id", Json.String e.Corpus.err_request_id) ])

let shard_report_json (sr : Corpus.shard_report) =
  Json.Obj
    [
      ("shard", Json.Int sr.Corpus.shard_index);
      ("docs", Json.Int (List.length sr.Corpus.shard_docs));
      ("nodes", Json.Int sr.Corpus.shard_nodes);
      ("elapsed_ns", Json.Int sr.Corpus.shard_elapsed_ns);
      ("deadline_expired", Json.Bool sr.Corpus.shard_deadline_expired);
      ("bound_skips", Json.Int sr.Corpus.shard_bound_skips);
      ("errors", Json.List (List.map doc_error_json sr.Corpus.shard_errors));
    ]

let routing_json (r : Corpus.routing) =
  Json.Obj
    [
      ("candidates", Json.Int r.Corpus.candidates);
      ("routed_out", Json.Int r.Corpus.routed_out);
      ("bound_skips", Json.Int r.Corpus.bound_skips);
    ]

let corpus_outcome_json corpus (o : Corpus.outcome) =
  let routing =
    match o.Corpus.routing with
    | None -> []
    | Some r -> [ ("routing", routing_json r) ]
  in
  Json.Obj
    ([
      ("count", Json.Int (List.length o.Corpus.hits));
      ("total_answers", Json.Int o.Corpus.total_answers);
      ("deadline_expired", Json.Bool o.Corpus.deadline_expired);
      ("elapsed_ns", Json.Int o.Corpus.elapsed_ns);
      ("merge_ns", Json.Int o.Corpus.merge_ns);
      ("shards", Json.List (List.map shard_report_json o.Corpus.shard_reports));
      ("errors", Json.List (List.map doc_error_json o.Corpus.errors));
      ("hits", Json.List (List.map (corpus_hit_json corpus) o.Corpus.hits));
      ("stats", stats_json o.Corpus.stats);
    ]
    @ routing)

let run_corpus_request t p corpus (r : Exec.Request.t) =
  (* The shared server cache is attached: it is synchronized (striped)
     and its per-document partitions give every corpus member a scoped
     view, so shard workers warm it concurrently instead of thrashing a
     global generation.  A mid-run deadline yields partial results with
     [deadline_expired] set — a 200, not a 408: the contract of the
     corpus endpoint is "everything that finished". *)
  let r = Exec.Request.with_cache t.cache r in
  let keywords = (Exec.Request.to_query r).Xfrag_core.Query.keywords in
  let scorer ctx f = Ranking.score ctx ~keywords f in
  (* The index-derived bound dominates [Ranking.score] for the same
     keywords (see Corpus_index), so early termination is sound for
     this endpoint's scorer; [None] (unindexed corpus) just means no
     skipping. *)
  let bound = Corpus.score_bound corpus ~keywords in
  let outcome =
    try Corpus.run ?shards:t.shards ?bound ~scorer corpus r
    with Invalid_argument msg -> reject ~status:400 msg
  in
  charge_stats p outcome.Corpus.stats;
  record_corpus t outcome;
  p.p_strategy <- Exec.strategy_name r.Exec.Request.strategy;
  p.p_shards <- max p.p_shards (List.length outcome.Corpus.shard_reports);
  p.p_eval_ns <- p.p_eval_ns + outcome.Corpus.elapsed_ns;
  p.p_merge_ns <- p.p_merge_ns + outcome.Corpus.merge_ns;
  p.p_hits <- p.p_hits + List.length outcome.Corpus.hits;
  p.p_doc_errors <- p.p_doc_errors + List.length outcome.Corpus.errors;
  (match outcome.Corpus.routing with
  | None -> ()
  | Some ri ->
      p.p_routed_out <- p.p_routed_out + ri.Corpus.routed_out;
      p.p_bound_skips <- p.p_bound_skips + ri.Corpus.bound_skips);
  if outcome.Corpus.deadline_expired then p.p_outcome <- "deadline";
  corpus_outcome_json corpus outcome

let handle_corpus_query t p ~id req =
  let corpus = corpus_of t in
  match body_json req with
  | Json.List batch ->
      (* One HTTP request = one admission-control ticket: the batch
         shares the worker slot it was admitted under and runs its
         requests back to back on the shard pool. *)
      if List.length batch > max_batch then
        reject ~status:400
          (Printf.sprintf "batch too large (max %d requests)" max_batch)
      else if batch = [] then reject ~status:400 "empty batch"
      else
        let t0 = Clock.monotonic () in
        let requests =
          List.map
            (fun j -> Exec.Request.with_id id (request_of_json t req j))
            batch
        in
        p.p_parse_ns <- Clock.monotonic () - t0;
        let results = List.map (run_corpus_request t p corpus) requests in
        json_response ~status:200
          (Json.Obj
             [
               ("request_id", Json.String id);
               ("results", Json.List results);
             ])
  | j ->
      let t0 = Clock.monotonic () in
      let r = Exec.Request.with_id id (request_of_json t req j) in
      p.p_parse_ns <- Clock.monotonic () - t0;
      let body = run_corpus_request t p corpus r in
      let body =
        match body with
        | Json.Obj fields ->
            Json.Obj (("request_id", Json.String id) :: fields)
        | j -> j
      in
      json_response ~status:200 body

(* --- document CRUD: PUT/GET/DELETE /corpus/docs/{name} ---

   Writers serialize on [writer_lock]: read the pinned snapshot, compute
   the functionally-updated corpus, publish it with one [Atomic.set],
   then retire the replaced/deleted document's join-cache partition
   (keyed by its retired {!Context.generation}) so every other resident
   document stays warm.  Readers never take the lock — they keep
   querying the previous snapshot until the set lands.  The
   [corpus.write] failpoint fires inside the lock but before any state
   change, so an injected failure 500s with the published snapshot
   untouched. *)

let record_write t ~op ~ns ~wait_ns ~maint_ns ~retracted =
  locked t (fun () ->
      Metrics.Counter.incr
        (Metrics.counter t.registry (Printf.sprintf "corpus.%s" op));
      Metrics.Histogram.observe
        (Metrics.histogram t.registry (Printf.sprintf "corpus.%s_ns" op))
        (float_of_int ns);
      Metrics.Histogram.observe
        (Metrics.histogram t.registry "corpus.writer_wait_ns")
        (float_of_int wait_ns);
      if retracted then
        Metrics.Histogram.observe
          (Metrics.histogram t.registry "index.retract_ns")
          (float_of_int maint_ns))

(* Returns (the document existed before, writer-lock wait ns, index
   maintenance ns). *)
let mutate t ~name f =
  let t0 = Clock.monotonic () in
  Mutex.lock t.writer_lock;
  let wait_ns = Clock.monotonic () - t0 in
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.writer_lock)
    (fun () ->
      Fault.Failpoint.hit ~key:name "corpus.write";
      let old = Atomic.get t.corpus in
      let old_gen = Corpus.generation old name in
      let m0 = Clock.monotonic () in
      let next = f old in
      let maint_ns = Clock.monotonic () - m0 in
      Atomic.set t.corpus next;
      (match (old_gen, t.cache) with
      | Some g, Some c -> Join_cache.retire c ~generation:g
      | _ -> ());
      (old_gen <> None, wait_ns, maint_ns))

let doc_stats_json name ctx =
  Json.Obj
    [
      ("doc", Json.String name);
      ("nodes", Json.Int (Context.size ctx));
      ( "keywords",
        Json.Int (Xfrag_doctree.Inverted_index.vocabulary_size ctx.Context.index)
      );
      ("generation", Json.Int ctx.Context.generation);
    ]

let handle_put_doc t p ~id ~name req =
  let t0 = Clock.monotonic () in
  let tree =
    (* Same quarantine discipline as [Loader.load_tree]: the
       [parse.document] failpoint (keyed by the document name, as the
       loader keys it by path) runs first, and every parse failure —
       malformed XML, injected fault, any escape — surfaces as a
       structured 400 and a [quarantined_docs] bump, never an exception
       and never a corpus change. *)
    match
      Fault.Failpoint.hit ~key:name "parse.document";
      Doctree.of_xml (Xfrag_xml.Xml_parser.parse_string req.Http.body)
    with
    | tree -> tree
    | exception Xfrag_xml.Xml_error.Parse_error e ->
        Fault.record "quarantined_docs";
        reject ~kind:"parse_error" ~status:400
          (Xfrag_xml.Xml_error.to_string e)
    | exception Fault.Injected (site, detail) ->
        Fault.record "quarantined_docs";
        reject ~kind:"parse_error" ~status:400
          (Printf.sprintf "injected fault at %s: %s" site detail)
    | exception e ->
        Fault.record "quarantined_docs";
        reject ~kind:"parse_error" ~status:400 (Printexc.to_string e)
  in
  p.p_parse_ns <- Clock.monotonic () - t0;
  let existed, wait_ns, maint_ns =
    mutate t ~name (fun c -> Corpus.replace c ~name tree)
  in
  let ns = Clock.monotonic () - t0 in
  record_write t ~op:"put" ~ns ~wait_ns ~maint_ns ~retracted:existed;
  let corpus = snapshot t in
  json_response
    ~status:(if existed then 200 else 201)
    (Json.Obj
       [
         ("request_id", Json.String id);
         ("doc", Json.String name);
         ("created", Json.Bool (not existed));
         ("replaced", Json.Bool existed);
         ("nodes", Json.Int (Context.size (Corpus.context corpus name)));
         ("corpus_docs", Json.Int (Corpus.size corpus));
       ])

let handle_delete_doc t ~id ~name =
  let t0 = Clock.monotonic () in
  (* Existence is decided inside the writer critical section, so two
     racing DELETEs of the same document cannot both claim the kill. *)
  let existed, wait_ns, maint_ns =
    mutate t ~name (fun c -> Corpus.remove c ~name)
  in
  if not existed then
    reject ~status:404 (Printf.sprintf "no such document %S" name)
  else begin
    let ns = Clock.monotonic () - t0 in
    record_write t ~op:"delete" ~ns ~wait_ns ~maint_ns ~retracted:true;
    json_response ~status:200
      (Json.Obj
         [
           ("request_id", Json.String id);
           ("doc", Json.String name);
           ("deleted", Json.Bool true);
           ("corpus_docs", Json.Int (Corpus.size (snapshot t)));
         ])
  end

let handle_get_doc t ~id ~name =
  let corpus = snapshot t in
  match Corpus.context corpus name with
  | ctx -> (
      match doc_stats_json name ctx with
      | Json.Obj fields ->
          json_response ~status:200
            (Json.Obj (("request_id", Json.String id) :: fields))
      | j -> json_response ~status:200 j)
  | exception Not_found ->
      reject ~status:404 (Printf.sprintf "no such document %S" name)

(* Listing and stats read the snapshot directly (no [corpus_of] 404):
   an empty collection is a legal answer on the resource endpoints —
   it is what a client sees between bootstrap and its first PUT. *)
let handle_list_docs t ~id =
  let corpus = snapshot t in
  json_response ~status:200
    (Json.Obj
       [
         ("request_id", Json.String id);
         ("count", Json.Int (Corpus.size corpus));
         ( "docs",
           Json.List
             (List.map
                (fun name -> doc_stats_json name (Corpus.context corpus name))
                (Corpus.names corpus)) );
       ])

let handle_corpus_stats t ~id =
  let corpus = snapshot t in
  let index_json =
    match Corpus.index corpus with
    | None -> Json.Null
    | Some idx ->
        Json.Obj
          [
            ("docs", Json.Int (Xfrag_index.Corpus_index.doc_count idx));
            ( "vocabulary",
              Json.Int (Xfrag_index.Corpus_index.vocabulary_size idx) );
            ("postings", Json.Int (Xfrag_index.Corpus_index.total_postings idx));
          ]
  in
  let cache_json =
    match t.cache with
    | None -> Json.Null
    | Some c ->
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Int v))
             (Join_cache.metrics_assoc c))
  in
  json_response ~status:200
    (Json.Obj
       [
         ("request_id", Json.String id);
         ("docs", Json.Int (Corpus.size corpus));
         ("total_nodes", Json.Int (Corpus.total_nodes corpus));
         ("index", index_json);
         ("cache", cache_json);
       ])

(* --- /debug/requests and /debug/slow --- *)

let int_param req name ~default =
  match Http.query_param req name with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> n
      | _ -> reject ~status:400 (Printf.sprintf "%s must be a non-negative integer" name))

let events_response ?threshold_ns events =
  let fields =
    [ ("enabled", Json.Bool (Recorder.enabled ())) ]
    @ (match threshold_ns with
      | None -> []
      | Some ns -> [ ("threshold_ns", Json.Int ns) ])
    @ [
        ("count", Json.Int (List.length events));
        ("events", Json.List (List.map Recorder.to_json events));
      ]
  in
  json_response ~status:200 (Json.Obj fields)

let handle_debug_requests req =
  match Http.query_param req "id" with
  | Some id ->
      events_response
        (List.filter (fun ev -> ev.Recorder.id = id) (Recorder.events ()))
  | None ->
      let n = int_param req "n" ~default:64 in
      events_response (Recorder.last n)

let handle_debug_slow t req =
  let default_ms =
    match t.slow_ns with
    | Some ns -> ns / 1_000_000
    | None -> default_slow_ms
  in
  let ms = int_param req "ms" ~default:default_ms in
  let threshold_ns = ms * 1_000_000 in
  events_response ~threshold_ns (Recorder.slow ~threshold_ns)

(* --- dispatch --- *)

(* The method table for every known path: a known path with the wrong
   method answers 405 with an [Allow] header and the allowed list in
   the body; only unknown paths 404. *)
let allowed_methods path =
  match path with
  | "/query" | "/explain" | "/corpus/query" -> Some [ "POST" ]
  | "/corpus/docs" | "/corpus/stats" | "/healthz" | "/metrics"
  | "/debug/requests" | "/debug/slow" ->
      Some [ "GET" ]
  | _ when doc_path_name path <> None -> Some [ "DELETE"; "GET"; "PUT" ]
  | _ -> None

let method_not_allowed allow =
  error_response ~status:405
    ~headers:[ ("Allow", String.concat ", " allow) ]
    ~extra:[ ("allow", Json.List (List.map (fun m -> Json.String m) allow)) ]
    (Printf.sprintf "method not allowed (allowed: %s)"
       (String.concat ", " allow))

let dispatch t p ~id req =
  match (req.Http.meth, req.Http.path) with
  | "POST", "/query" -> handle_query t p ~id req
  | "POST", "/explain" -> handle_explain t p ~id req
  | "POST", "/corpus/query" -> handle_corpus_query t p ~id req
  | "GET", "/corpus/docs" -> handle_list_docs t ~id
  | "GET", "/corpus/stats" -> handle_corpus_stats t ~id
  | "GET", "/healthz" ->
      Http.response ~headers:[ ("Content-Type", "text/plain") ] ~status:200 "ok\n"
  | "GET", "/metrics" ->
      Http.response
        ~headers:[ ("Content-Type", "text/plain; version=0.0.4") ]
        ~status:200 (metrics_page t)
  | "GET", "/debug/requests" -> handle_debug_requests req
  | "GET", "/debug/slow" -> handle_debug_slow t req
  | meth, path -> (
      match (doc_path_name path, meth) with
      | Some name, "PUT" -> handle_put_doc t p ~id ~name req
      | Some name, "GET" -> handle_get_doc t ~id ~name
      | Some name, "DELETE" -> handle_delete_doc t ~id ~name
      | _ -> (
          match allowed_methods path with
          | Some allow -> method_not_allowed allow
          | None -> error_response ~status:404 "not found"))

(* Engine escapes become structured 500s in the envelope: a
   machine-readable [kind] (plus [site] for injected faults) so clients
   and chaos harnesses can distinguish deliberate injection from a
   genuine bug without parsing the human-oriented message.  Every 500
   bumps the [request_errors] fault counter — the containment signal on
   /metrics.  The request id lands in the body at [handle]'s single
   exit, so the failure can be joined back to its wide event in
   /debug/requests. *)
let internal_error_response e =
  Fault.record "request_errors";
  match e with
  | Fault.Injected (site, detail) ->
      error_response ~status:500 ~kind:"fault_injected" ~site
        (Printf.sprintf "injected fault at %s: %s" site detail)
  | e -> error_response ~status:500 ("internal error: " ^ Printexc.to_string e)

let with_request_id id resp =
  {
    resp with
    Http.resp_headers = resp.Http.resp_headers @ [ ("X-Request-Id", id) ];
  }

(* Error bodies are built by [reject] deep inside decoding helpers,
   before the request id is in scope; stamp it into the ["error"]
   envelope at the single exit point instead so every JSON error
   (400/404/405/408/500) can be joined back to its wide event, like the
   200s already can. *)
let ensure_body_request_id ~id resp =
  if resp.Http.status < 400 then resp
  else
    match Json.of_string resp.Http.resp_body with
    | Ok (Json.Obj fields) ->
        let fields =
          List.map
            (function
              | "error", Json.Obj env
                when not (List.mem_assoc "request_id" env) ->
                  ("error", Json.Obj (env @ [ ("request_id", Json.String id) ]))
              | f -> f)
            fields
        in
        { resp with Http.resp_body = Json.to_string (Json.Obj fields) ^ "\n" }
    | _ -> resp

let outcome_of_status = function
  | s when s >= 200 && s < 400 -> "ok"
  | 408 -> "deadline"
  | s when s >= 400 && s < 500 -> "client_error"
  | 503 -> "shed"
  | _ -> "error"

(* One structured line per request.  JSON so it greps and parses; SLOW
   mirror lines carry the whole wide event for requests over the
   threshold.  The channel is shared by every worker domain, hence the
   lock. *)
let access_log_line t ~id ~req ~status ~total_ns ~outcome =
  match t.access_log with
  | None -> ()
  | Some oc ->
      let line =
        Json.to_string
          (Json.Obj
             [
               ("id", Json.String id);
               ("method", Json.String req.Http.meth);
               ("path", Json.String req.Http.path);
               ("status", Json.Int status);
               ("total_ns", Json.Int total_ns);
               ("outcome", Json.String outcome);
             ])
      in
      Mutex.lock t.log_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.log_lock)
        (fun () ->
          output_string oc (line ^ "\n");
          flush oc)

let slow_log_line t ev =
  match t.access_log with
  | None -> ()
  | Some oc ->
      let line = "SLOW " ^ Json.to_string (Recorder.to_json ev) in
      Mutex.lock t.log_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.log_lock)
        (fun () ->
          output_string oc (line ^ "\n");
          flush oc)

let handle ?(queue_ns = 0) t req =
  let t0 = Clock.monotonic () in
  let id = Reqid.accept_or_mint (Http.header req "x-request-id") in
  let p = new_pending () in
  let resp =
    try dispatch t p ~id req with
    | Reject resp -> resp
    | Deadline.Expired ->
        p.p_outcome <- "deadline";
        error_response ~status:408 "deadline exceeded"
    | e ->
        (match e with
        | Fault.Injected (site, _) ->
            p.p_outcome <- "fault";
            p.p_site <- site
        | _ -> p.p_outcome <- "error");
        internal_error_response e
  in
  let resp = with_request_id id (ensure_body_request_id ~id resp) in
  let total_ns = Clock.monotonic () - t0 in
  let endpoint = endpoint_label req.Http.path in
  record t ~endpoint ~status:resp.Http.status ~ns:total_ns;
  let outcome =
    if p.p_outcome <> "" then p.p_outcome else outcome_of_status resp.Http.status
  in
  let ev : Recorder.event =
    {
      Recorder.seq = 0;
      id;
      endpoint;
      strategy = p.p_strategy;
      shards = p.p_shards;
      queue_ns;
      parse_ns = p.p_parse_ns;
      eval_ns = p.p_eval_ns;
      merge_ns = p.p_merge_ns;
      total_ns;
      hits = p.p_hits;
      cache_hits = p.p_cache_hits;
      cache_misses = p.p_cache_misses;
      doc_errors = p.p_doc_errors;
      routed_out = p.p_routed_out;
      bound_skips = p.p_bound_skips;
      status = resp.Http.status;
      outcome;
      site = p.p_site;
    }
  in
  Recorder.record ~endpoint ~strategy:p.p_strategy ~shards:p.p_shards ~queue_ns
    ~parse_ns:p.p_parse_ns ~eval_ns:p.p_eval_ns ~merge_ns:p.p_merge_ns
    ~total_ns ~hits:p.p_hits ~cache_hits:p.p_cache_hits
    ~cache_misses:p.p_cache_misses ~doc_errors:p.p_doc_errors
    ~routed_out:p.p_routed_out ~bound_skips:p.p_bound_skips
    ~status:resp.Http.status ~site:p.p_site ~id ~outcome ();
  access_log_line t ~id ~req ~status:resp.Http.status ~total_ns ~outcome;
  (match t.slow_ns with
  | Some threshold when total_ns >= threshold -> slow_log_line t ev
  | _ -> ());
  resp
