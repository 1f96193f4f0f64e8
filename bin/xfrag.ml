(* xfrag — keyword search over document-centric XML using the algebraic
   query model of Pradhan (VLDB 2006).

   Subcommands: query, stats, explain, baseline, corpus, sql, cache,
   generate. *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Exec = Xfrag_core.Exec
module Corpus = Xfrag_core.Corpus
module Deadline = Xfrag_core.Deadline
module Op_stats = Xfrag_core.Op_stats
module Optimizer = Xfrag_core.Optimizer
module Doctree = Xfrag_doctree.Doctree
module Stats = Xfrag_doctree.Stats
module Ranking = Xfrag_baselines.Ranking
module Trace = Xfrag_obs.Trace
module Export = Xfrag_obs.Export
module Metrics = Xfrag_obs.Metrics
module Clock = Xfrag_obs.Clock
module Json = Xfrag_obs.Json
module Recorder = Xfrag_obs.Recorder
module Reqid = Xfrag_obs.Reqid

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let stem_arg =
  Arg.(
    value & flag
    & info [ "stem" ]
        ~doc:"Index and match keywords through a Porter stemmer (plural and \
              derived forms match their stems).")

(* All document loading goes through Loader: corrupt input comes back
   as [Error], never as an exception, and the [parse.document] fault
   site is honored. *)
let load_tree = Xfrag_doctree.Loader.load_tree

let load_context ?(stem = false) file =
  let options = { Xfrag_doctree.Tokenizer.default_options with stem } in
  Result.map (Context.create ~options) (load_tree file)

(* --- common arguments --- *)

let file_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:"XML document, or a .doctree cache written by $(b,xfrag cache).")

let keywords_arg =
  Arg.(
    non_empty & opt_all string []
    & info [ "k"; "keyword" ] ~docv:"KEYWORD" ~doc:"Query keyword (repeatable).")

let filter_arg =
  Arg.(
    value & opt string ""
    & info [ "f"; "filter" ] ~docv:"FILTER"
        ~doc:
          "Selection predicate: comma-separated conjunction of size<=N, \
           height<=N, span<=N, diameter<=N, width<=N, depth<=N, size>=N, \
           rootlabel=L, labels=a|b, keyword=K, eqdepth=K1/K2; prefix a term \
           with not: to negate.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let parse_filter s =
  if s = "" then Ok Filter.True
  else Filter.of_string s

let deadline_ms_arg =
  Arg.(
    value & opt int 0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Abort the evaluation once it has run for $(docv) milliseconds \
           (0 = no deadline).  A corpus search returns the partial \
           results gathered so far; a single-document query fails.")

(* Flags -> Exec.Request, the one assembly path every evaluating
   subcommand shares (mirroring the HTTP endpoints, which share the
   Exec.Request JSON codec): flag semantics cannot drift between
   subcommands, and validation messages come from Exec itself. *)
let request_of_flags ?(strict = false) ?(deadline_ms = 0) ?limit ~keywords
    ~filter_str ~strategy_str () =
  let ( let* ) = Result.bind in
  let* filter = parse_filter filter_str in
  let* strategy = Eval.strategy_of_string strategy_str in
  let* deadline =
    if deadline_ms = 0 then Ok Deadline.none
    else Exec.deadline_of_ms deadline_ms
  in
  let request =
    Exec.Request.default
    |> Exec.Request.with_keywords keywords
    |> Exec.Request.with_filter filter
    |> Exec.Request.with_strategy strategy
    |> Exec.Request.with_strict_leaf strict
    |> Exec.Request.with_deadline deadline
    |> Exec.Request.with_limit limit
  in
  (* Normalize eagerly so an unusable keyword list is a flag error
     (message + exit 1), not a raised exception mid-evaluation. *)
  match Exec.Request.to_query request with
  | _ -> Ok request
  | exception Invalid_argument msg -> Error msg

(* --- query command --- *)

let strategy_arg =
  Arg.(
    value & opt string "auto"
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Evaluation strategy: auto, brute-force, naive, set-reduction, \
           pushdown, pushdown-reduction, semi-naive.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict-leaf" ]
        ~doc:"Enforce Definition 8 verbatim (keywords must occur in fragment leaves).")

let xml_arg =
  Arg.(value & flag & info [ "xml" ] ~doc:"Print each answer fragment as XML.")

let rank_arg =
  Arg.(value & flag & info [ "rank" ] ~doc:"Order answers by tf-idf score.")

let limit_arg =
  Arg.(value & opt int 0 & info [ "limit" ] ~docv:"N" ~doc:"Print at most N answers (0 = all).")

let show_stats_arg =
  Arg.(value & flag & info [ "show-stats" ] ~doc:"Print operation counters.")

let timing_arg =
  Arg.(
    value & flag
    & info [ "timing" ]
        ~doc:"Print wall-clock elapsed time (total and per phase).")

let explain_analyze_arg =
  Arg.(
    value & flag
    & info [ "explain-analyze" ]
        ~doc:
          "Run the plan the query runs (same strategy, strict-leaf and \
           cache) and print it as a per-operator tree annotated with \
           measured wall time, input/output cardinalities, and \
           operation-counter deltas, the Auto strategy's reduction-factor \
           probe included.")

let trace_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record a hierarchical execution trace and write it to $(docv): \
           Chrome trace-event JSON (open in chrome://tracing or Perfetto), \
           or JSON-lines if $(docv) ends in .jsonl.")

let join_cache_arg =
  Arg.(
    value & opt int 0
    & info [ "join-cache" ] ~docv:"SIZE"
        ~doc:
          "Memoize fragment joins in a bounded LRU cache of at most \
           $(docv) entries (0 = disabled, the default).  Answers are \
           unchanged.  The cache is attached only to pruned \
           (pushdown-family) strategies, where probing it is cheaper \
           than joining.  Hit/miss/eviction counters appear in \
           $(b,--show-stats), $(b,--metrics-out) and \
           $(b,--explain-analyze) output.")

let metrics_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write a metrics-registry snapshot (operation counters, answer \
           counts, latency histogram) as JSON to $(docv).")

(* Build the metrics registry for one query evaluation. *)
let metrics_of_outcome ?cache (outcome : Eval.outcome) =
  let reg = Metrics.create () in
  Metrics.add_assoc ~prefix:"ops." reg (Op_stats.to_assoc outcome.Eval.stats);
  (match cache with
  | None -> ()
  | Some c -> Metrics.add_assoc reg (Xfrag_core.Join_cache.metrics_assoc c));
  Metrics.Gauge.set (Metrics.gauge reg "query.answers")
    (float_of_int (Frag_set.cardinal outcome.Eval.answers));
  Metrics.Histogram.observe
    (Metrics.histogram reg "query.elapsed_ns")
    (float_of_int outcome.Eval.elapsed_ns);
  List.iter
    (fun (phase, ns) ->
      Metrics.Counter.add (Metrics.counter reg ("query.phase_ns." ^ phase)) ns)
    outcome.Eval.phase_ns;
  List.iter
    (fun (k, n) ->
      Metrics.Counter.add (Metrics.counter reg ("query.postings." ^ k)) n)
    outcome.Eval.keyword_node_counts;
  reg

let write_trace trace path =
  let contents =
    if Filename.check_suffix path ".jsonl" then Export.to_jsonl trace
    else Export.to_chrome trace
  in
  Export.write_file path contents

let run_query file keywords filter_str strategy_str strict deadline_ms as_xml
    rank limit show_stats timing explain_analyze trace_out metrics_out
    join_cache stem verbose =
  setup_logs verbose;
  let ( let* ) = Result.bind in
  let result =
    let* ctx = load_context ~stem file in
    let* request =
      request_of_flags ~strict ~deadline_ms ~keywords ~filter_str ~strategy_str
        ()
    in
    let query = Exec.Request.to_query request in
    let cache =
      if join_cache > 0 then
        Some (Xfrag_core.Join_cache.create ~capacity:join_cache ())
      else None
    in
    let request = Exec.Request.with_cache cache request in
    if explain_analyze then begin
      match Xfrag_core.Explain.analyze_request ctx request with
      | report ->
          Format.printf "%a@." Xfrag_core.Explain.pp report;
          Ok ()
      | exception Deadline.Expired -> Error "deadline exceeded"
    end
    else begin
      let trace =
        match trace_out with Some _ -> Trace.create () | None -> Trace.disabled
      in
      let request = Exec.Request.with_trace trace request in
      let* outcome =
        match Eval.exec ctx request with
        | o -> Ok o
        | exception Deadline.Expired -> Error "deadline exceeded"
      in
      let answers =
        if rank then
          List.map (fun s -> s.Ranking.fragment)
            (Ranking.rank ctx ~keywords:query.Query.keywords outcome.Eval.answers)
        else Frag_set.elements outcome.Eval.answers
      in
      let answers = if limit > 0 then List.filteri (fun i _ -> i < limit) answers else answers in
      Format.printf "%d answer fragment(s) [strategy: %s]@."
        (Frag_set.cardinal outcome.Eval.answers)
        (Eval.strategy_name outcome.Eval.strategy_used);
      List.iter
        (fun f ->
          if as_xml then
            Format.printf "@.%s@."
              (Xfrag_xml.Xml_printer.node_to_string (Fragment.to_xml ctx f))
          else Format.printf "  %a@." (Fragment.pp_labeled ctx) f)
        answers;
      if show_stats then Format.printf "ops: %a@." Op_stats.pp outcome.Eval.stats;
      if timing then begin
        Format.printf "elapsed: %a@." Clock.pp_ns outcome.Eval.elapsed_ns;
        List.iter
          (fun (phase, ns) -> Format.printf "  %-12s %a@." phase Clock.pp_ns ns)
          outcome.Eval.phase_ns
      end;
      let* () =
        match trace_out with
        | None -> Ok ()
        | Some path ->
            let* () = write_trace trace path in
            Format.printf "trace written to %s (%d spans)@." path
              (List.length (Trace.spans trace));
            Ok ()
      in
      let* () =
        match metrics_out with
        | None -> Ok ()
        | Some path ->
            let json = Json.to_string (Metrics.to_json (metrics_of_outcome ?cache outcome)) in
            let* () = Export.write_file path (json ^ "\n") in
            Format.printf "metrics written to %s@." path;
            Ok ()
      in
      Ok ()
    end
  in
  match result with
  | Ok () -> 0
  | Error msg ->
      Format.eprintf "xfrag: %s@." msg;
      1

let query_cmd =
  let doc = "Evaluate a keyword query against an XML document." in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(
      const run_query $ file_arg $ keywords_arg $ filter_arg $ strategy_arg
      $ strict_arg $ deadline_ms_arg $ xml_arg $ rank_arg $ limit_arg
      $ show_stats_arg $ timing_arg $ explain_analyze_arg $ trace_out_arg
      $ metrics_out_arg $ join_cache_arg $ stem_arg $ verbose_arg)

(* --- stats command --- *)

let run_stats file verbose =
  setup_logs verbose;
  match load_context file with
  | Error msg ->
      Format.eprintf "xfrag: %s@." msg;
      1
  | Ok ctx ->
      Format.printf "%a@." Stats.pp (Stats.compute ctx.Context.tree);
      Format.printf "vocabulary: %d keywords, %d postings@."
        (Xfrag_doctree.Inverted_index.vocabulary_size ctx.Context.index)
        (Xfrag_doctree.Inverted_index.total_postings ctx.Context.index);
      0

let stats_cmd =
  let doc = "Print document statistics." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run_stats $ file_arg $ verbose_arg)

(* --- explain command --- *)

let run_explain file keywords filter_str verbose =
  setup_logs verbose;
  let ( let* ) = Result.bind in
  let result =
    let* ctx = load_context file in
    let* filter = parse_filter filter_str in
    let* query =
      match Query.make ~filter keywords with
      | q -> Ok q
      | exception Invalid_argument msg -> Error msg
    in
    print_string (Optimizer.explain ctx query);
    Ok ()
  in
  match result with
  | Ok () -> 0
  | Error msg ->
      Format.eprintf "xfrag: %s@." msg;
      1

let explain_cmd =
  let doc =
    "Show the plan the Auto strategy runs, its cost estimate and the \
     reduction factors its gate probed."
  in
  Cmd.v
    (Cmd.info "explain" ~doc)
    Term.(const run_explain $ file_arg $ keywords_arg $ filter_arg $ verbose_arg)

(* --- baseline command --- *)

let method_arg =
  Arg.(
    value & opt string "slca"
    & info [ "m"; "method" ] ~docv:"METHOD" ~doc:"Baseline: slca, elca, or smallest.")

let run_baseline file keywords method_ verbose =
  setup_logs verbose;
  match load_context file with
  | Error msg ->
      Format.eprintf "xfrag: %s@." msg;
      1
  | Ok ctx -> (
      match method_ with
      | "slca" ->
          let nodes = Xfrag_baselines.Slca.answer ctx keywords in
          Format.printf "%d SLCA node(s)@." (List.length nodes);
          List.iter
            (fun n -> Format.printf "  %a@." (Doctree.pp_node ctx.Context.tree) n)
            nodes;
          0
      | "elca" ->
          let nodes = Xfrag_baselines.Elca.answer ctx keywords in
          Format.printf "%d ELCA node(s)@." (List.length nodes);
          List.iter
            (fun n -> Format.printf "  %a@." (Doctree.pp_node ctx.Context.tree) n)
            nodes;
          0
      | "smallest" ->
          let frags = Xfrag_baselines.Smallest_subtree.answer ctx keywords in
          Format.printf "%d smallest-subtree answer(s)@." (Frag_set.cardinal frags);
          Frag_set.iter
            (fun f -> Format.printf "  %a@." (Fragment.pp_labeled ctx) f)
            frags;
          0
      | m ->
          Format.eprintf "xfrag: unknown baseline %S (expected slca, elca, smallest)@." m;
          1)

let baseline_cmd =
  let doc = "Run a comparison baseline (SLCA / ELCA / smallest subtree)." in
  Cmd.v
    (Cmd.info "baseline" ~doc)
    Term.(const run_baseline $ file_arg $ keywords_arg $ method_arg $ verbose_arg)

(* --- corpus command --- *)

let files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"FILE" ~doc:"XML documents forming the collection.")

let top_arg =
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Show the N best-scoring hits.")

let shards_arg =
  Arg.(
    value & opt int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Partition the corpus into $(docv) shards evaluated in parallel \
           on the shared domain pool (0 = automatic: the pool's \
           parallelism).  Results are identical for every shard count.")

(* Quarantining load: a corrupt (or duplicate-named) FILE costs a
   warning and its own absence from the corpus, never the run.  Only a
   fully-empty corpus is an error. *)
let load_documents files =
  let docs, quarantine = Xfrag_doctree.Loader.load_documents files in
  List.iter
    (fun (q : Xfrag_doctree.Loader.quarantined) ->
      Format.eprintf "xfrag: quarantined %s: %s@."
        q.Xfrag_doctree.Loader.q_file q.Xfrag_doctree.Loader.q_reason)
    quarantine;
  if docs = [] then
    Error
      (Printf.sprintf "no loadable documents (%d quarantined)"
         (List.length quarantine))
  else Ok docs

let load_corpus files =
  Result.map
    (fun docs ->
      List.fold_left
        (fun corpus (name, tree) -> Corpus.add corpus ~name tree)
        Corpus.empty docs)
    (load_documents files)

let run_corpus files keywords filter_str strategy_str strict deadline_ms top
    shards no_routing slow_ms verbose =
  setup_logs verbose;
  let ( let* ) = Result.bind in
  let result =
    let* request =
      request_of_flags ~strict ~deadline_ms
        ?limit:(if top > 0 then Some top else None)
        ~keywords ~filter_str ~strategy_str ()
    in
    (* CLI runs get a request id too: it tags doc_error rows, the wide
       event below, and the SLOW lines, exactly like a served request. *)
    let request = Exec.Request.with_id (Reqid.mint ()) request in
    let query = Exec.Request.to_query request in
    let* corpus = load_corpus files in
    Format.printf "corpus: %d documents, %d nodes@." (Corpus.size corpus)
      (Corpus.total_nodes corpus);
    let scorer ctx f = Ranking.score ctx ~keywords:query.Query.keywords f in
    let bound = Corpus.score_bound corpus ~keywords:query.Query.keywords in
    let* outcome =
      match
        Corpus.run
          ?shards:(if shards > 0 then Some shards else None)
          ?routing:(if no_routing then Some false else None)
          ?bound ~scorer corpus request
      with
      | o -> Ok o
      | exception Invalid_argument msg -> Error msg
    in
    Format.printf "%d answer(s) across the corpus, %d hit(s) shown [%d shard(s), merge %a]@."
      outcome.Corpus.total_answers
      (List.length outcome.Corpus.hits)
      (List.length outcome.Corpus.shard_reports)
      Clock.pp_ns outcome.Corpus.merge_ns;
    (match outcome.Corpus.routing with
    | None -> ()
    | Some ri ->
        Format.printf
          "routing: %d candidate(s), %d routed out, %d bound skip(s)@."
          ri.Corpus.candidates ri.Corpus.routed_out ri.Corpus.bound_skips);
    List.iteri
      (fun i (hit, score) ->
        let ctx = Corpus.context corpus hit.Corpus.doc in
        Format.printf "  #%d %-20s %.2f  %a@." (i + 1) hit.Corpus.doc score
          (Fragment.pp_labeled ctx) hit.Corpus.fragment)
      outcome.Corpus.hits;
    if verbose then
      List.iter
        (fun (sr : Corpus.shard_report) ->
          Format.printf "shard %d: %d doc(s), %d node(s), %a%s@."
            sr.Corpus.shard_index
            (List.length sr.Corpus.shard_docs)
            sr.Corpus.shard_nodes Clock.pp_ns sr.Corpus.shard_elapsed_ns
            (if sr.Corpus.shard_deadline_expired then " (deadline expired)"
             else ""))
        outcome.Corpus.shard_reports;
    (* Contained per-document failures: the hits above are exactly what
       a corpus without these documents would return, so report them
       and still exit 0. *)
    List.iter
      (fun (e : Corpus.doc_error) ->
        Format.printf "document error (contained): %s: %s@." e.Corpus.err_doc
          e.Corpus.err_detail)
      outcome.Corpus.errors;
    if outcome.Corpus.deadline_expired then
      Format.printf "deadline exceeded: results are partial@.";
    Recorder.record ~endpoint:"cli.corpus"
      ~strategy:(Exec.strategy_name request.Exec.Request.strategy)
      ~shards:(List.length outcome.Corpus.shard_reports)
      ~eval_ns:outcome.Corpus.elapsed_ns ~merge_ns:outcome.Corpus.merge_ns
      ~total_ns:outcome.Corpus.elapsed_ns
      ~hits:(List.length outcome.Corpus.hits)
      ~doc_errors:(List.length outcome.Corpus.errors)
      ?routed_out:
        (Option.map (fun r -> r.Corpus.routed_out) outcome.Corpus.routing)
      ?bound_skips:
        (Option.map (fun r -> r.Corpus.bound_skips) outcome.Corpus.routing)
      ~id:request.Exec.Request.id
      ~outcome:(if outcome.Corpus.deadline_expired then "deadline" else "ok")
      ();
    (* --slow-ms: the CLI's slow-query log.  SLOW lines go to stderr so
       scripted stdout (the `  #N` hit lines) stays machine-parseable. *)
    if slow_ms >= 0 then begin
      let threshold_ns = slow_ms * 1_000_000 in
      if outcome.Corpus.elapsed_ns >= threshold_ns then
        Format.eprintf "SLOW request %s: %a total (merge %a, %d shard(s))@."
          request.Exec.Request.id Clock.pp_ns outcome.Corpus.elapsed_ns
          Clock.pp_ns outcome.Corpus.merge_ns
          (List.length outcome.Corpus.shard_reports);
      List.iter
        (fun (sr : Corpus.shard_report) ->
          List.iter
            (fun (dr : Corpus.doc_report) ->
              if dr.Corpus.doc_elapsed_ns >= threshold_ns then
                Format.eprintf "SLOW doc %s: %a (%s, %d answer(s)) [%s]@."
                  dr.Corpus.doc_name Clock.pp_ns dr.Corpus.doc_elapsed_ns
                  (Exec.strategy_name dr.Corpus.doc_strategy)
                  dr.Corpus.doc_answers request.Exec.Request.id)
            sr.Corpus.shard_docs)
        outcome.Corpus.shard_reports
    end;
    Ok ()
  in
  match result with
  | Ok () -> 0
  | Error msg ->
      Format.eprintf "xfrag: %s@." msg;
      1

let no_routing_arg =
  Arg.(
    value & flag
    & info [ "no-routing" ]
        ~doc:
          "Disable index routing and top-k early termination: evaluate \
           the query against every document (the answers are identical \
           either way).")

let slow_ms_arg =
  Arg.(
    value & opt int (-1)
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:"Slow-query threshold in milliseconds: requests (and \
              per-document evaluations) at or over it print SLOW lines \
              to stderr.  Negative = disabled.")

let corpus_cmd =
  let doc =
    "Search a collection of XML documents (scored, cross-document), \
     sharded across parallel domains."
  in
  Cmd.v
    (Cmd.info "corpus" ~doc)
    Term.(
      const run_corpus $ files_arg $ keywords_arg $ filter_arg $ strategy_arg
      $ strict_arg $ deadline_ms_arg $ top_arg $ shards_arg $ no_routing_arg
      $ slow_ms_arg $ verbose_arg)

(* --- sql command --- *)

let sql_arg =
  Arg.(
    required & pos 1 (some string) None
    & info [] ~docv:"SQL"
        ~doc:
          "SELECT statement over the relational encoding: tables node(id, \
           parent, depth, last, label) and keyword(word, node).")

let run_sql file sql verbose =
  setup_logs verbose;
  match Xfrag_xml.Xml_parser.parse_file file with
  | exception Xfrag_xml.Xml_error.Parse_error e ->
      Format.eprintf "xfrag: %s: %s@." file (Xfrag_xml.Xml_error.to_string e);
      1
  | exception Sys_error msg ->
      Format.eprintf "xfrag: %s@." msg;
      1
  | doc -> (
      let tree = Doctree.of_xml doc in
      let db = Xfrag_relstore.Mapping.of_doctree tree in
      match Xfrag_relstore.Sql.run db sql with
      | Ok rel ->
          Format.printf "%a@." Xfrag_relstore.Relation.pp rel;
          0
      | Error msg ->
          Format.eprintf "xfrag: %s@." msg;
          1)

let sql_cmd =
  let doc = "Run a SQL query against the document's relational encoding ([13])." in
  Cmd.v (Cmd.info "sql" ~doc) Term.(const run_sql $ file_arg $ sql_arg $ verbose_arg)

(* --- cache command --- *)

let output_arg =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "output" ] ~docv:"OUT"
        ~doc:"Output path (default: input with a .doctree suffix).")

let run_cache file output verbose =
  setup_logs verbose;
  match load_tree file with
  | Error msg ->
      Format.eprintf "xfrag: %s@." msg;
      1
  | Ok tree -> (
      let out =
        match output with
        | Some o -> o
        | None -> Filename.remove_extension file ^ ".doctree"
      in
      match Xfrag_doctree.Codec.save tree out with
      | () ->
          Format.printf "%s: %d nodes cached@." out (Doctree.size tree);
          0
      | exception Sys_error msg ->
          Format.eprintf "xfrag: %s@." msg;
          1)

let cache_cmd =
  let doc =
    "Parse a document once and cache the tree; other commands accept the \
     .doctree file directly."
  in
  Cmd.v (Cmd.info "cache" ~doc) Term.(const run_cache $ file_arg $ output_arg $ verbose_arg)

(* --- generate command --- *)

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let sections_arg =
  Arg.(value & opt int 5 & info [ "sections" ] ~docv:"N" ~doc:"Top-level sections.")

let vocab_arg =
  Arg.(value & opt int 1000 & info [ "vocabulary" ] ~docv:"N" ~doc:"Vocabulary size.")

let run_generate seed sections vocabulary verbose =
  setup_logs verbose;
  let cfg =
    { Xfrag_workload.Docgen.default with seed; sections; vocabulary_size = vocabulary }
  in
  print_string (Xfrag_workload.Docgen.generate_xml cfg);
  print_newline ();
  0

let generate_cmd =
  let doc = "Emit a synthetic document-centric XML document to stdout." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(const run_generate $ seed_arg $ sections_arg $ vocab_arg $ verbose_arg)

(* --- serve command --- *)

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Bind address.")

let port_arg =
  Arg.(
    value & opt int 8080
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"TCP port to listen on (0 = pick an ephemeral port; the \
              chosen one is printed).")

let workers_arg =
  Arg.(
    value & opt int 0
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker domains evaluating queries in parallel (0 = one per \
              core, capped at 4).")

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:"Admission-control bound: connections waiting for a worker \
              before new ones are shed with 503 Retry-After.")

let request_timeout_arg =
  Arg.(
    value & opt int 0
    & info [ "request-timeout-ms" ] ~docv:"MS"
        ~doc:"Default per-request evaluation deadline; a query running \
              past it aborts with 408 (0 = none).  Requests can override \
              it with ?deadline_ns or a deadline_ms body field.")

let io_timeout_arg =
  Arg.(
    value & opt float 10.0
    & info [ "io-timeout-s" ] ~docv:"S"
        ~doc:"Socket read/write timeout guarding against slow clients.")

let serve_join_cache_arg =
  Arg.(
    value & opt int 4096
    & info [ "join-cache" ] ~docv:"SIZE"
        ~doc:"Shared join-memoization cache, in entries (0 = disabled).  \
              The cache is split into eight mutex-guarded stripes across \
              worker domains, with per-document partitions, so /query, \
              /explain and sharded /corpus/query all share it without \
              cross-document invalidation.  It is attached only to \
              pruned (pushdown-family) strategies.  On multi-document \
              /corpus/query reads it currently costs more time and \
              memory than it saves (README, Serving).")

let serve_slow_ms_arg =
  Arg.(
    value & opt int 0
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:"Slow-request threshold: requests at or over it mirror \
              their wide event as SLOW lines into the access log, and \
              GET /debug/slow defaults to this threshold (0 = SLOW \
              mirroring off; /debug/slow then defaults to 100 ms).")

let access_log_arg =
  Arg.(
    value & opt (some string) None
    & info [ "access-log" ] ~docv:"FILE"
        ~doc:"Append one structured JSON line per request to FILE \
              (default: stderr).")

let run_serve files host port workers queue request_timeout_ms io_timeout
    join_cache shards slow_ms access_log stem verbose =
  setup_logs verbose;
  let ( let* ) = Result.bind in
  let loaded =
    (* First successfully loaded FILE is the single-document target of
       /query and /explain; every loaded FILE forms the corpus behind
       /corpus/query.  Quarantined files are warned about and skipped —
       the server refuses to start only with nothing to serve. *)
    let* docs = load_documents files in
    let options = { Xfrag_doctree.Tokenizer.default_options with stem } in
    let ctx = Context.create ~options (snd (List.hd docs)) in
    let corpus =
      List.fold_left
        (fun corpus (name, tree) -> Corpus.add corpus ~name tree)
        Corpus.empty docs
    in
    Ok (ctx, corpus)
  in
  match loaded with
  | Error msg ->
      Format.eprintf "xfrag: %s@." msg;
      1
  | Ok (ctx, corpus) ->
      let cache =
        if join_cache > 0 then
          Some
            (Xfrag_core.Join_cache.create ~synchronized:true
               ~capacity:join_cache ())
        else None
      in
      let default_deadline_ns =
        if request_timeout_ms > 0 then Some (request_timeout_ms * 1_000_000)
        else None
      in
      let access_log_oc =
        match access_log with
        | None -> stderr
        | Some file -> open_out_gen [ Open_append; Open_creat ] 0o644 file
      in
      let router =
        Xfrag_server.Router.create ?cache ?default_deadline_ns ~corpus
          ?shards:(if shards > 0 then Some shards else None)
          ?slow_ms:(if slow_ms > 0 then Some slow_ms else None)
          ~access_log:access_log_oc ctx
      in
      let config =
        {
          Xfrag_server.Server.default_config with
          host;
          port;
          queue_cap = queue;
          io_timeout_s = io_timeout;
          workers =
            (if workers > 0 then workers
             else Xfrag_server.Server.default_config.Xfrag_server.Server.workers);
          default_deadline_ns;
        }
      in
      (match Xfrag_server.Server.start ~config router with
      | exception Unix.Unix_error (err, _, _) ->
          Format.eprintf "xfrag: cannot bind %s:%d: %s@." host port
            (Unix.error_message err);
          1
      | server ->
          Xfrag_server.Server.install_signal_handlers server;
          (* SIGQUIT: dump the flight recorder without stopping — the
             live-incident "what has this server been doing" escape
             hatch (kill -QUIT <pid>). *)
          (try
             Sys.set_signal Sys.sigquit
               (Sys.Signal_handle
                  (fun _ ->
                    if Recorder.enabled () then
                      Recorder.dump ~reason:"SIGQUIT" stderr))
           with Invalid_argument _ | Sys_error _ -> ());
          (* The smoke test and scripts parse this line for the port. *)
          Format.printf "xfrag: listening on %s:%d (%d workers, queue %d)@."
            host
            (Xfrag_server.Server.port server)
            config.Xfrag_server.Server.workers queue;
          Xfrag_server.Server.run server;
          (match access_log with
          | Some _ -> ( try close_out access_log_oc with Sys_error _ -> ())
          | None -> ());
          Format.printf "xfrag: drained, bye@.";
          0)

let serve_cmd =
  let doc =
    "Serve queries over HTTP: POST /query, /explain, and /corpus/query \
     (JSON; the corpus endpoint searches every FILE, sharded across \
     parallel domains, and accepts a JSON array as a batch), GET \
     /healthz and /metrics (Prometheus text format).  The corpus is \
     mutable while serving: PUT/GET/DELETE /corpus/docs/NAME \
     create, inspect, replace, and remove documents (PUT body = XML, \
     parsed with the same quarantine rules as loading), GET \
     /corpus/docs lists the collection, and GET /corpus/stats reports \
     corpus, index, and cache shape; changes are visible to the next \
     query without restart.  A fixed worker pool shares one in-memory \
     index and one join cache; a bounded queue sheds overload with \
     503; per-request deadlines abort runaway evaluations with 408; \
     SIGINT/SIGTERM drain gracefully."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ files_arg $ host_arg $ port_arg $ workers_arg
      $ queue_arg $ request_timeout_arg $ io_timeout_arg
      $ serve_join_cache_arg $ shards_arg $ serve_slow_ms_arg
      $ access_log_arg $ stem_arg $ verbose_arg)

let main_cmd =
  let doc = "algebraic keyword search over document-centric XML fragments" in
  Cmd.group
    (Cmd.info "xfrag" ~version:"1.0.0" ~doc)
    [
      query_cmd; stats_cmd; explain_cmd; baseline_cmd; corpus_cmd; sql_cmd;
      cache_cmd; generate_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
