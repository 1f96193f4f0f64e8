(* Tests for multi-document collections (§7: "a very large collection of
   XML documents") and the sharded parallel corpus engine: sharded
   answers must be bit-identical to sequential for every shard count,
   the k-way merge must honor ties and limits, and a deadline expiring
   mid-run must yield a partial outcome, never an exception. *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Exec = Xfrag_core.Exec
module Corpus = Xfrag_core.Corpus
module Deadline = Xfrag_core.Deadline
module Shard_pool = Xfrag_core.Shard_pool
module Clock = Xfrag_obs.Clock
module Docgen = Xfrag_workload.Docgen
module Paper = Xfrag_workload.Paper_doc

let make_corpus () =
  let doc seed plant =
    Docgen.with_planted_keywords { Docgen.default with seed; sections = 2 } ~plant
  in
  Corpus.of_documents
    [
      ("a.xml", doc 1 [ ("mangrove", 2); ("estuary", 2) ]);
      ("b.xml", doc 2 [ ("mangrove", 3) ]);
      ("c.xml", doc 3 [ ("estuary", 1) ]);
      ("paper.xml", Paper.figure1 ());
    ]

(* A wider collection so seven shards are meaningfully non-empty.  The
   document list is exposed so the containment tests can rebuild the
   corpus minus a chosen victim. *)
let wide_docs () =
  let doc seed plant =
    Docgen.with_planted_keywords { Docgen.default with seed; sections = 2 } ~plant
  in
  List.init 10 (fun i ->
      let plant =
        [ ("mangrove", 1 + (i mod 3)) ]
        @ (if i mod 2 = 0 then [ ("estuary", 1 + (i mod 2)) ] else [])
      in
      (Printf.sprintf "doc%02d.xml" i, doc (100 + i) plant))

let make_wide_corpus () = Corpus.of_documents (wide_docs ())

let request ?(filter = Filter.True) ?strategy ?strict ?limit keywords =
  let r =
    Exec.Request.default
    |> Exec.Request.with_keywords keywords
    |> Exec.Request.with_filter filter
  in
  let r =
    match strategy with None -> r | Some s -> Exec.Request.with_strategy s r
  in
  let r =
    match strict with None -> r | Some b -> Exec.Request.with_strict_leaf b r
  in
  Exec.Request.with_limit limit r

let hits_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (h1, s1) (h2, s2) ->
         h1.Corpus.doc = h2.Corpus.doc
         && Fragment.compare h1.Corpus.fragment h2.Corpus.fragment = 0
         && (s1 : float) = s2)
       a b

let tfidf_scorer keywords ctx f =
  Xfrag_baselines.Ranking.score ctx ~keywords f

(* --- structure --- *)

let test_structure () =
  let c = make_corpus () in
  Alcotest.(check int) "four documents" 4 (Corpus.size c);
  Alcotest.(check (list string)) "sorted names"
    [ "a.xml"; "b.xml"; "c.xml"; "paper.xml" ]
    (Corpus.names c);
  Alcotest.(check bool) "total nodes positive" true (Corpus.total_nodes c > 82);
  Alcotest.(check bool) "context accessible" true
    (Context.size (Corpus.context c "paper.xml") = 82);
  (match Corpus.context c "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found")

(* Add-or-replace contract: re-adding an existing name replaces the
   document (fresh context, so a fresh generation — one partition
   retired downstream), keeps the corpus size, and the replacement is
   what queries see. *)
let test_duplicate_name_replaces () =
  let c0 = make_corpus () in
  let gen0 = Option.get (Corpus.generation c0 "a.xml") in
  let c1 = Corpus.add c0 ~name:"a.xml" (Paper.figure1 ()) in
  Alcotest.(check int) "size unchanged" (Corpus.size c0) (Corpus.size c1);
  let gen1 = Option.get (Corpus.generation c1 "a.xml") in
  Alcotest.(check bool) "generation retired" true (gen0 <> gen1);
  Alcotest.(check int) "replacement tree served" 82
    (Context.size (Corpus.context c1 "a.xml"));
  (* The old snapshot is untouched (functional update). *)
  Alcotest.(check bool) "old snapshot intact" true
    (Context.size (Corpus.context c0 "a.xml") <> 82
    || Corpus.generation c0 "a.xml" = Some gen0)

(* --- search --- *)

let search ?scorer c r = (Corpus.run ?scorer c r).Corpus.hits

let test_search_only_matching_documents () =
  let c = make_corpus () in
  let hits = search c (request ~filter:(Filter.Size_at_most 5) [ "mangrove"; "estuary" ]) in
  (* Only a.xml contains both keywords. *)
  Alcotest.(check bool) "hits exist" true (hits <> []);
  List.iter
    (fun (h, _) -> Alcotest.(check string) "from a.xml" "a.xml" h.Corpus.doc)
    hits

let test_search_matches_per_document_eval () =
  let c = make_corpus () in
  let q = Query.make ~filter:(Filter.Size_at_most 4) [ "mangrove" ] in
  let hits = search c (Exec.Request.of_query q) in
  let expected =
    List.fold_left
      (fun acc name ->
        acc + Frag_set.cardinal (Eval.answers (Corpus.context c name) q))
      0 (Corpus.names c)
  in
  Alcotest.(check int) "hit count = sum of per-doc answers" expected
    (List.length hits)

let test_search_scored_ordering () =
  let c = make_corpus () in
  let r ?limit () = request ~filter:(Filter.Size_at_most 4) ?limit [ "mangrove" ] in
  let scorer ctx f =
    (* Favour fragments with many keyword occurrences, penalize size. *)
    let hits =
      Xfrag_util.Int_sorted.fold
        (fun acc n ->
          if Xfrag_doctree.Inverted_index.node_contains ctx.Context.index n "mangrove"
          then acc + 1
          else acc)
        0 (Fragment.nodes f)
    in
    float_of_int hits /. float_of_int (Fragment.size f)
  in
  let scored = search ~scorer c (r ()) in
  let rec non_increasing = function
    | (_, s1) :: ((_, s2) :: _ as rest) -> s1 >= s2 && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "descending" true (non_increasing scored);
  let limited = search ~scorer c (r ~limit:3 ()) in
  Alcotest.(check int) "limit" 3 (List.length limited)

let test_document_frequency () =
  let c = make_corpus () in
  Alcotest.(check int) "mangrove in 2 docs" 2 (Corpus.document_frequency c "mangrove");
  Alcotest.(check int) "estuary in 2 docs" 2 (Corpus.document_frequency c "estuary");
  Alcotest.(check int) "xquery in paper only" 1 (Corpus.document_frequency c "xquery");
  Alcotest.(check int) "absent" 0 (Corpus.document_frequency c "zzz")

let test_fragments_never_span_documents () =
  let c = make_corpus () in
  List.iter
    (fun (h, _) ->
      let ctx = Corpus.context c h.Corpus.doc in
      Alcotest.(check bool) "valid in own document" true
        (Fragment.is_connected ctx (Fragment.nodes h.Corpus.fragment)))
    (search c (request [ "mangrove" ]))

(* --- sharded execution: bit-identical to sequential --- *)

let test_sharded_identical_to_sequential () =
  let c = make_wide_corpus () in
  let keywords = [ "mangrove"; "estuary" ] in
  let scorer = tfidf_scorer keywords in
  List.iter
    (fun strategy ->
      List.iter
        (fun strict ->
          let r =
            request ~filter:(Filter.Size_at_most 6) ~strategy ~strict
              ~limit:10 keywords
          in
          let baseline = (Corpus.run ~shards:1 ~scorer c r).Corpus.hits in
          List.iter
            (fun shards ->
              let sharded = (Corpus.run ~shards ~scorer c r).Corpus.hits in
              Alcotest.(check bool)
                (Printf.sprintf "%s strict=%b shards=%d == sequential"
                   (Eval.strategy_name strategy) strict shards)
                true
                (hits_equal baseline sharded))
            [ 2; 7 ])
        [ false; true ])
    [
      Eval.Auto; Eval.Naive_fixpoint; Eval.Set_reduction; Eval.Pushdown;
      Eval.Pushdown_reduction; Eval.Semi_naive;
    ]

(* --- shared cache across shards: bit-identical, warm, never stale --- *)

module JC = Xfrag_core.Join_cache

(* Shared-cache capacities the corpus sweeps run at: nothing stored,
   constant eviction, and the default. *)
let cache_capacities =
  [ ("capacity-0", 0); ("capacity-7", 7); ("default", JC.default_capacity) ]

let test_sharded_cache_identical () =
  (* One synchronized striped cache shared by every shard worker:
     answers bit-identical to the uncached sequential baseline across
     strategies x strict-leaf x shards {1,2,7} x what the cache admits
     (capacities 0, 7 and the default). *)
  let c = make_wide_corpus () in
  let keywords = [ "mangrove"; "estuary" ] in
  let scorer = tfidf_scorer keywords in
  List.iter
    (fun strategy ->
      List.iter
        (fun strict ->
          let r =
            request ~filter:(Filter.Size_at_most 6) ~strategy ~strict
              ~limit:10 keywords
          in
          let baseline = (Corpus.run ~shards:1 ~scorer c r).Corpus.hits in
          List.iter
            (fun (variant, capacity) ->
              let cache =
                JC.create ~synchronized:true ~stripes:3 ~capacity ()
              in
              let rc = Exec.Request.with_cache (Some cache) r in
              List.iter
                (fun shards ->
                  let sharded = (Corpus.run ~shards ~scorer c rc).Corpus.hits in
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "%s strict=%b shards=%d %s == uncached sequential"
                       (Eval.strategy_name strategy) strict shards variant)
                    true
                    (hits_equal baseline sharded))
                [ 1; 2; 7 ])
            cache_capacities)
        [ false; true ])
    [ Eval.Auto; Eval.Naive_fixpoint; Eval.Semi_naive ]

let test_sharded_cache_serves_hits () =
  (* The corpus path must actually use the shared cache now (it was
     silently stripped before): repeated sharded runs against the same
     corpus serve hits from warm per-document partitions, with no
     invalidation churn. *)
  let c = make_wide_corpus () in
  let cache =
    JC.create ~synchronized:true ~max_docs:16 ()
  in
  let r =
    request ~filter:(Filter.Size_at_most 6) [ "mangrove" ]
    |> Exec.Request.with_cache (Some cache)
  in
  let baseline = (Corpus.run ~shards:4 c (request ~filter:(Filter.Size_at_most 6) [ "mangrove" ])).Corpus.hits in
  let o1 = Corpus.run ~shards:4 c r in
  let h1 = JC.hits cache in
  let o2 = Corpus.run ~shards:4 c r in
  Alcotest.(check bool) "first sharded cached run exact" true
    (hits_equal baseline o1.Corpus.hits);
  Alcotest.(check bool) "second sharded cached run exact" true
    (hits_equal baseline o2.Corpus.hits);
  Alcotest.(check bool) "nonzero hits in sharded execution" true
    (o2.Corpus.stats.Xfrag_core.Op_stats.cache_hits > 0);
  Alcotest.(check bool) "warm partitions serve the re-run" true
    (JC.hits cache > h1);
  Alcotest.(check int) "no cross-document invalidation" 0
    (JC.invalidations cache)

let test_sharded_identical_unlimited_constant_score () =
  (* With the constant scorer and no limit the merged order is document
     name then fragment order — every document's own answers, in turn —
     for every shard count. *)
  let c = make_wide_corpus () in
  let r = request ~filter:(Filter.Size_at_most 5) [ "mangrove" ] in
  let baseline = Corpus.run ~shards:1 c r in
  let per_document =
    List.concat_map
      (fun doc ->
        List.map
          (fun fragment -> ({ Corpus.doc; fragment }, 0.))
          (Frag_set.elements (Eval.exec (Corpus.context c doc) r).Eval.answers))
      (Corpus.names c)
  in
  Alcotest.(check bool) "sequential run == per-document answers" true
    (hits_equal per_document baseline.Corpus.hits);
  List.iter
    (fun shards ->
      let o = Corpus.run ~shards c r in
      Alcotest.(check bool)
        (Printf.sprintf "shards=%d == sequential" shards)
        true
        (hits_equal baseline.Corpus.hits o.Corpus.hits);
      Alcotest.(check int)
        (Printf.sprintf "shards=%d same total answers" shards)
        baseline.Corpus.total_answers o.Corpus.total_answers;
      (* Per-document work is independent of the sharding, so the merged
         operator counters must agree too. *)
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "shards=%d same merged stats" shards)
        (Xfrag_core.Op_stats.to_assoc baseline.Corpus.stats)
        (Xfrag_core.Op_stats.to_assoc o.Corpus.stats))
    [ 2; 7 ]

let test_merge_limit_is_prefix () =
  (* Truncating to k must return exactly the first k of the untruncated
     merge (ties included), whatever the shard count. *)
  let c = make_wide_corpus () in
  let keywords = [ "mangrove" ] in
  let scorer = tfidf_scorer keywords in
  let full_r = request ~filter:(Filter.Size_at_most 5) keywords in
  List.iter
    (fun shards ->
      let full = (Corpus.run ~shards ~scorer c full_r).Corpus.hits in
      Alcotest.(check bool) "enough hits for the test" true
        (List.length full > 4);
      List.iter
        (fun k ->
          let limited =
            (Corpus.run ~shards ~scorer c
               (Exec.Request.with_limit (Some k) full_r))
              .Corpus.hits
          in
          let prefix = List.filteri (fun i _ -> i < k) full in
          Alcotest.(check bool)
            (Printf.sprintf "limit %d is a prefix (shards=%d)" k shards)
            true
            (hits_equal prefix limited))
        [ 1; 3; 4 ])
    [ 1; 2; 7 ]

let test_shard_reports_partition_the_corpus () =
  let c = make_wide_corpus () in
  let r = request [ "mangrove" ] in
  let o = Corpus.run ~shards:7 c r in
  Alcotest.(check int) "seven shards" 7 (List.length o.Corpus.shard_reports);
  let docs =
    List.concat_map
      (fun sr ->
        List.map (fun d -> d.Corpus.doc_name) sr.Corpus.shard_docs)
      o.Corpus.shard_reports
  in
  Alcotest.(check (list string)) "every document evaluated exactly once"
    (Corpus.names c) (List.sort String.compare docs);
  List.iter
    (fun sr ->
      Alcotest.(check bool) "per-shard nodes accounted" true
        (sr.Corpus.shard_nodes
        = List.fold_left
            (fun a d -> a + d.Corpus.doc_nodes)
            0 sr.Corpus.shard_docs))
    o.Corpus.shard_reports;
  Alcotest.(check bool) "shard count clamps to corpus size" true
    (List.length (Corpus.run ~shards:64 c r).Corpus.shard_reports
    <= Corpus.size c)

let test_explicit_pool_and_zero_domains () =
  (* domains:0 is the sequential mode; a dedicated pool must give the
     same answers as the shared default. *)
  let c = make_wide_corpus () in
  let r = request ~limit:5 [ "mangrove" ] in
  let pool = Shard_pool.create ~domains:0 () in
  let a = (Corpus.run ~pool ~shards:4 c r).Corpus.hits in
  let b = (Corpus.run ~shards:4 c r).Corpus.hits in
  Shard_pool.shutdown pool;
  Alcotest.(check bool) "same hits" true (hits_equal a b)

(* --- deadline: partial results, never an exception --- *)

let test_deadline_already_expired_is_partial_not_raise () =
  let c = make_wide_corpus () in
  let expired = Deadline.at ~clock:(fun () -> 10) 5 in
  List.iter
    (fun shards ->
      let r =
        Exec.Request.with_deadline expired (request [ "mangrove" ])
      in
      let o = Corpus.run ~shards c r in
      Alcotest.(check bool)
        (Printf.sprintf "expired flag set (shards=%d)" shards)
        true o.Corpus.deadline_expired;
      Alcotest.(check int)
        (Printf.sprintf "no hits (shards=%d)" shards)
        0
        (List.length o.Corpus.hits);
      List.iter
        (fun sr ->
          Alcotest.(check bool) "shard reports expiry" true
            sr.Corpus.shard_deadline_expired;
          Alcotest.(check int) "no document completed" 0
            (List.length sr.Corpus.shard_docs))
        o.Corpus.shard_reports)
    [ 1; 3 ]

let test_deadline_mid_run_yields_partial_outcome () =
  (* A counter clock makes the deadline expire a deterministic number of
     clock reads into the run: some documents complete, the rest are
     dropped at a document boundary.  The outcome must be a consistent
     partial result — completed documents' hits only, flag set, no
     exception. *)
  let c = make_wide_corpus () in
  let full =
    Corpus.run ~shards:1 c (request ~filter:(Filter.Size_at_most 5) [ "mangrove" ])
  in
  let mid_deadline =
    Deadline.at ~clock:(Clock.counter ~start:0 ~step:1 ()) 40
  in
  let r =
    request ~filter:(Filter.Size_at_most 5) [ "mangrove" ]
    |> Exec.Request.with_deadline mid_deadline
  in
  let o = Corpus.run ~shards:1 c r in
  Alcotest.(check bool) "expired mid-run" true o.Corpus.deadline_expired;
  Alcotest.(check bool) "strictly partial" true
    (List.length o.Corpus.hits < List.length full.Corpus.hits);
  (* Every surviving hit comes verbatim from the full result set. *)
  List.iter
    (fun (h, _) ->
      Alcotest.(check bool) "hit also in full run" true
        (List.exists
           (fun (h', _) ->
             h.Corpus.doc = h'.Corpus.doc
             && Fragment.compare h.Corpus.fragment h'.Corpus.fragment = 0)
           full.Corpus.hits))
    o.Corpus.hits;
  (* Completed documents are exactly the ones reported. *)
  let completed =
    List.concat_map
      (fun sr -> List.map (fun d -> d.Corpus.doc_name) sr.Corpus.shard_docs)
      o.Corpus.shard_reports
  in
  List.iter
    (fun (h, _) ->
      Alcotest.(check bool) "hits only from completed documents" true
        (List.mem h.Corpus.doc completed))
    o.Corpus.hits

let test_deadline_does_not_poison_cache () =
  (* Per-document corpus evaluations now share the request's cache (when
     synchronized); an expiring corpus run must leave it fully usable —
     the deadline only ever raises outside the cache's critical
     sections, so no partition is left mid-update. *)
  let c = make_wide_corpus () in
  let cache = Xfrag_core.Join_cache.create ~synchronized:true ~capacity:64 () in
  let expired = Deadline.at ~clock:(fun () -> 10) 5 in
  let r =
    request [ "mangrove" ]
    |> Exec.Request.with_cache (Some cache)
    |> Exec.Request.with_deadline expired
  in
  let o = Corpus.run ~shards:2 c r in
  Alcotest.(check bool) "partial outcome" true o.Corpus.deadline_expired;
  let ctx = Corpus.context c "doc00.xml" in
  let q = Query.make [ "mangrove" ] in
  let with_cache = Eval.answers ~cache ctx q in
  let without = Eval.answers ctx q in
  Alcotest.(check bool) "cache still answers correctly" true
    (Frag_set.equal with_cache without)

let test_non_deadline_errors_are_contained () =
  (* Errors other than deadline expiry are contained per document: the
     failing document is dropped from the answer set and reported in the
     outcome's error list, never raised through the shard machinery. *)
  let c = make_wide_corpus () in
  let boom _ _ = failwith "boom" in
  let o = Corpus.run ~shards:3 ~scorer:boom c (request [ "mangrove" ]) in
  Alcotest.(check int) "no hits from failing documents" 0
    (List.length o.Corpus.hits);
  Alcotest.(check bool) "every matching document is reported" true
    (o.Corpus.errors <> []);
  List.iter
    (fun (e : Corpus.doc_error) ->
      Alcotest.(check bool) "the scorer's error is preserved" true
        (Astring.String.find_sub ~sub:"boom" e.Corpus.err_detail <> None))
    o.Corpus.errors;
  (* Shard error lists concatenate into the outcome's. *)
  Alcotest.(check int) "outcome errors = union of shard errors"
    (List.length o.Corpus.errors)
    (List.fold_left
       (fun a sr -> a + List.length sr.Corpus.shard_errors)
       0 o.Corpus.shard_reports)

(* --- fault containment: one failing document never disturbs the rest --- *)

module Fault = Xfrag_fault.Fault

let corpus_without victim =
  Corpus.of_documents
    (List.filter (fun (n, _) -> n <> victim) (wide_docs ()))

let check_errors_name_victim label victim (o : Corpus.outcome) =
  Alcotest.(check (list string)) label [ victim ]
    (List.map (fun e -> e.Corpus.err_doc) o.Corpus.errors)

let test_eval_document_fault_is_contained () =
  (* The containment property: for every victim and shard count, arming
     eval.document to kill one document yields exactly — same hits, same
     order, same scores — the corpus that never held that document.  The
     error report names the victim exactly when routing dispatched it:
     a victim lacking a query keyword is routed out and never evaluated,
     so its fault cannot fire at all. *)
  let docs = wide_docs () in
  let keywords = [ "mangrove"; "estuary" ] in
  let scorer = tfidf_scorer keywords in
  let r = request ~filter:(Filter.Size_at_most 6) ~limit:10 keywords in
  let candidates =
    match Corpus.index (Corpus.of_documents docs) with
    | Some idx -> Xfrag_index.Corpus_index.route idx ~keywords
    | None -> List.map fst docs
  in
  List.iter
    (fun (victim, _) ->
      let expected =
        (Corpus.run ~shards:1 ~scorer (corpus_without victim) r).Corpus.hits
      in
      List.iter
        (fun shards ->
          Fault.Failpoint.with_armed ~trigger:(Fault.Key victim)
            "eval.document" Fault.Raise (fun () ->
              let o =
                Corpus.run ~shards ~scorer (Corpus.of_documents docs) r
              in
              (* With routing off (outcome carries no routing report —
                 e.g. the index was dropped under the index.build chaos
                 leg), every document is dispatched and the victim's
                 fault always fires. *)
              let expected_errors =
                if o.Corpus.routing = None || List.mem victim candidates then
                  [ victim ]
                else []
              in
              Alcotest.(check bool)
                (Printf.sprintf "victim=%s shards=%d == corpus without it"
                   victim shards)
                true
                (hits_equal expected o.Corpus.hits);
              Alcotest.(check (list string))
                (Printf.sprintf "victim=%s shards=%d reported" victim shards)
                expected_errors
                (List.map (fun e -> e.Corpus.err_doc) o.Corpus.errors)))
        [ 1; 2; 7 ])
    docs

let test_eval_document_fault_contained_across_strategies () =
  let victim = "doc03.xml" in
  let keywords = [ "mangrove" ] in
  let scorer = tfidf_scorer keywords in
  List.iter
    (fun strategy ->
      let r =
        request ~filter:(Filter.Size_at_most 5) ~strategy ~limit:10 keywords
      in
      let expected =
        (Corpus.run ~shards:1 ~scorer (corpus_without victim) r).Corpus.hits
      in
      Fault.Failpoint.with_armed ~trigger:(Fault.Key victim) "eval.document"
        Fault.Raise (fun () ->
          let o = Corpus.run ~shards:2 ~scorer (make_wide_corpus ()) r in
          Alcotest.(check bool)
            (Printf.sprintf "%s: survivors identical"
               (Eval.strategy_name strategy))
            true
            (hits_equal expected o.Corpus.hits);
          check_errors_name_victim
            (Printf.sprintf "%s: victim reported" (Eval.strategy_name strategy))
            victim o))
    [
      Eval.Auto; Eval.Naive_fixpoint; Eval.Set_reduction; Eval.Pushdown;
      Eval.Pushdown_reduction; Eval.Semi_naive;
    ]

let test_eval_join_fault_is_contained () =
  (* A fault deep in the algebra (first fragment join of the run) kills
     exactly one document's evaluation; which one is deterministic at
     shards=1, and the error report tells us.  The surviving hits must
     match the corpus without that document. *)
  let keywords = [ "mangrove"; "estuary" ] in
  let scorer = tfidf_scorer keywords in
  let r = request ~filter:(Filter.Size_at_most 6) ~limit:10 keywords in
  let o =
    Fault.Failpoint.with_armed ~trigger:(Fault.Nth 1) "eval.join" Fault.Raise
      (fun () -> Corpus.run ~shards:1 ~scorer (make_wide_corpus ()) r)
  in
  Alcotest.(check int) "exactly one document lost" 1
    (List.length o.Corpus.errors);
  let victim = (List.hd o.Corpus.errors).Corpus.err_doc in
  let expected =
    (Corpus.run ~shards:1 ~scorer (corpus_without victim) r).Corpus.hits
  in
  Alcotest.(check bool)
    (Printf.sprintf "survivors identical to corpus without %s" victim)
    true
    (hits_equal expected o.Corpus.hits)

(* --- routing and top-k early termination: transparent by construction --- *)

(* The full-scan ground truth: routing and bound skipping disabled, one
   shard.  Everything the routed engine does must reproduce this
   bit-for-bit. *)
let full_scan ~scorer c r =
  (Corpus.run ~routing:false ~shards:1 ~scorer c r).Corpus.hits

let test_routed_identical_to_full_scan () =
  (* The tentpole property: routed execution (posting-list candidate
     selection + bound-descending early termination) is bit-identical to
     the full scan across strategies x strict-leaf x shard counts,
     including a query whose extra keyword hits nothing. *)
  let c = make_wide_corpus () in
  List.iter
    (fun keywords ->
      let scorer = tfidf_scorer keywords in
      let bound = Corpus.score_bound c ~keywords in
      Alcotest.(check bool) "corpus is indexed" true (bound <> None);
      List.iter
        (fun strategy ->
          List.iter
            (fun strict ->
              let r =
                request ~filter:(Filter.Size_at_most 6) ~strategy ~strict
                  ~limit:10 keywords
              in
              let baseline = full_scan ~scorer c r in
              List.iter
                (fun shards ->
                  let o =
                    Corpus.run ~routing:true ?bound ~shards ~scorer c r
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "kw=%s %s strict=%b shards=%d routed == full scan"
                       (String.concat "+" keywords)
                       (Eval.strategy_name strategy) strict shards)
                    true
                    (hits_equal baseline o.Corpus.hits);
                  Alcotest.(check bool) "routing reported" true
                    (o.Corpus.routing <> None))
                [ 1; 2; 7 ])
            [ false; true ])
        [
          Eval.Auto; Eval.Naive_fixpoint; Eval.Set_reduction; Eval.Pushdown;
          Eval.Pushdown_reduction; Eval.Semi_naive;
        ])
    [
      [ "mangrove" ];
      [ "mangrove"; "estuary" ];
      [ "mangrove"; "zzznope" ] (* zero-hit keyword: both sides empty *);
    ]

let test_routed_identical_under_cache_admissions () =
  (* Routing composes with the shared synchronized cache: identical
     answers at every capacity in [cache_capacities] and shard count. *)
  let c = make_wide_corpus () in
  let keywords = [ "mangrove"; "estuary" ] in
  let scorer = tfidf_scorer keywords in
  let bound = Corpus.score_bound c ~keywords in
  let r = request ~filter:(Filter.Size_at_most 6) ~limit:10 keywords in
  let baseline = full_scan ~scorer c r in
  List.iter
    (fun (variant, capacity) ->
      let cache = JC.create ~synchronized:true ~stripes:3 ~capacity () in
      let rc = Exec.Request.with_cache (Some cache) r in
      List.iter
        (fun shards ->
          let o = Corpus.run ~routing:true ?bound ~shards ~scorer c rc in
          Alcotest.(check bool)
            (Printf.sprintf "%s shards=%d routed+cache == full scan" variant
               shards)
            true
            (hits_equal baseline o.Corpus.hits))
        [ 1; 2; 7 ])
    cache_capacities

let test_disagreeing_scorer_never_changes_answers () =
  (* A scorer the bound wildly disagrees with — negated tf·idf, so the
     bound over-estimates every fragment by construction (bound >= 0 >=
     score), and a constant scorer under the tf·idf bound.  The bound
     stays conservative, so answers must not change; only work may be
     skipped. *)
  let c = make_wide_corpus () in
  let keywords = [ "mangrove" ] in
  let bound = Corpus.score_bound c ~keywords in
  List.iter
    (fun (name, scorer) ->
      let r = request ~filter:(Filter.Size_at_most 4) ~limit:5 keywords in
      let baseline = full_scan ~scorer c r in
      List.iter
        (fun shards ->
          let o = Corpus.run ~routing:true ?bound ~shards ~scorer c r in
          Alcotest.(check bool)
            (Printf.sprintf "%s shards=%d == full scan" name shards)
            true
            (hits_equal baseline o.Corpus.hits))
        [ 1; 2; 7 ])
    [
      ("negated tf-idf", fun ctx f -> -.tfidf_scorer keywords ctx f);
      ("constant zero", fun _ _ -> 0.);
    ]

let test_empty_intersection_short_circuits () =
  let c = make_wide_corpus () in
  let keywords = [ "zzznope" ] in
  let r = request ~limit:10 keywords in
  let o = Corpus.run ~routing:true c r in
  Alcotest.(check int) "no hits" 0 (List.length o.Corpus.hits);
  Alcotest.(check int) "no shards dispatched" 0
    (List.length o.Corpus.shard_reports);
  match o.Corpus.routing with
  | None -> Alcotest.fail "expected a routing report"
  | Some ri ->
      Alcotest.(check int) "no candidates" 0 ri.Corpus.candidates;
      Alcotest.(check int) "everything routed out" (Corpus.size c)
        ri.Corpus.routed_out

let test_routing_counts () =
  (* Even-indexed wide docs plant estuary; all plant mangrove.  The
     conjunctive query must dispatch exactly the five even docs. *)
  let c = make_wide_corpus () in
  let r = request ~limit:10 [ "mangrove"; "estuary" ] in
  let o = Corpus.run ~routing:true c r in
  (match o.Corpus.routing with
  | None -> Alcotest.fail "expected a routing report"
  | Some ri ->
      Alcotest.(check int) "five candidates" 5 ri.Corpus.candidates;
      Alcotest.(check int) "five routed out" 5 ri.Corpus.routed_out);
  let evaluated =
    List.concat_map
      (fun sr -> List.map (fun d -> d.Corpus.doc_name) sr.Corpus.shard_docs)
      o.Corpus.shard_reports
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "only candidates evaluated"
    [ "doc00.xml"; "doc02.xml"; "doc04.xml"; "doc06.xml"; "doc08.xml" ]
    evaluated

let test_bound_skips_fire_and_preserve_answers () =
  (* Handcrafted corpus with exact statistics: every document has the
     same shape, so idf is identical across docs and a single-node
     answer scores tf x idf.  Hot docs hold three occurrences in one
     node (score 3·idf, bound 3·idf), dust docs one (score = bound =
     idf).  With limit 2, the heap fills at 3·idf from the hot docs and
     every dust doc's bound is strictly below it — all skipped, answers
     unchanged. *)
  let tree xml = Xfrag_doctree.Doctree.of_xml (Xfrag_xml.Xml_parser.parse_string xml) in
  let doc_with occurrences =
    tree
      (Printf.sprintf
         "<doc><a>alpha</a><b>beta</b><p>%s</p></doc>"
         (String.concat " " (List.init occurrences (fun _ -> "mangrove"))))
  in
  let c =
    Corpus.of_documents
      ([
         ("hot1.xml", doc_with 3);
         ("hot2.xml", doc_with 3);
         ("hot3.xml", doc_with 3);
         ("none.xml", tree "<doc><a>alpha</a></doc>");
       ]
      @ List.init 4 (fun i -> (Printf.sprintf "dust%d.xml" i, doc_with 1)))
  in
  let keywords = [ "mangrove" ] in
  let scorer = tfidf_scorer keywords in
  let bound = Corpus.score_bound c ~keywords in
  let r = request ~limit:2 keywords in
  let baseline = full_scan ~scorer c r in
  let o = Corpus.run ~routing:true ?bound ~shards:1 ~scorer c r in
  Alcotest.(check bool) "answers identical" true
    (hits_equal baseline o.Corpus.hits);
  match o.Corpus.routing with
  | None -> Alcotest.fail "expected a routing report"
  | Some ri ->
      Alcotest.(check int) "keywordless doc routed out" 1 ri.Corpus.routed_out;
      Alcotest.(check int) "all dust docs skipped by the bound" 4
        ri.Corpus.bound_skips;
      Alcotest.(check int) "skips attributed to the shard" 4
        (List.fold_left
           (fun a sr -> a + sr.Corpus.shard_bound_skips)
           0 o.Corpus.shard_reports)

(* --- mutation: remove / replace / add-or-replace --- *)

module Corpus_index = Xfrag_index.Corpus_index

let test_remove_document () =
  let c = make_corpus () in
  let c' = Corpus.remove c ~name:"b.xml" in
  Alcotest.(check int) "size drops" 3 (Corpus.size c');
  Alcotest.(check (list string)) "names"
    [ "a.xml"; "c.xml"; "paper.xml" ]
    (Corpus.names c');
  Alcotest.(check bool) "mem" false (Corpus.mem c' "b.xml");
  Alcotest.(check int) "old snapshot untouched" 4 (Corpus.size c);
  Alcotest.(check int) "unknown remove is a no-op" 3
    (Corpus.size (Corpus.remove c' ~name:"nope.xml"));
  let keywords = [ "mangrove" ] in
  let scorer = tfidf_scorer keywords in
  let r = request ~filter:(Filter.Size_at_most 5) keywords in
  let hits = (Corpus.run ~shards:1 ~scorer c' r).Corpus.hits in
  Alcotest.(check bool) "hits survive elsewhere" true (hits <> []);
  Alcotest.(check bool) "no hits from the removed document" true
    (List.for_all (fun (h, _) -> h.Corpus.doc <> "b.xml") hits)

(* The mutation property: any interleaving of add/replace/delete,
   queried, is bit-identical to a corpus built from scratch with the
   surviving documents — across shards {1,2,7} x routing on/off x cache
   capacities.  When both corpora kept their index, the
   incrementally-maintained index is also [Corpus_index.equal] to the
   from-scratch one (under the chaos legs one side may have degraded
   down the maintenance ladder; answers must match anyway). *)
let test_mutation_equivalent_to_rebuild () =
  let doc seed plant =
    Docgen.with_planted_keywords { Docgen.default with seed; sections = 2 } ~plant
  in
  let tree i =
    doc (200 + i) [ ("mangrove", 1 + (i mod 3)); ("estuary", 1 + (i mod 2)) ]
  in
  (* (name, Some tree) = add/replace; (name, None) = delete. *)
  let scripts =
    [
      [ ("d0", Some (tree 0)); ("d1", Some (tree 1)); ("d0", None) ];
      [
        ("d0", Some (tree 0)); ("d0", Some (tree 10)); ("d1", Some (tree 1));
        ("d2", Some (tree 2)); ("d1", None); ("d1", Some (tree 11));
        ("d3", Some (tree 3)); ("d2", None);
      ];
      [ ("d0", Some (tree 0)); ("d0", None); ("d0", Some (tree 20)) ];
    ]
  in
  let keywords = [ "mangrove"; "estuary" ] in
  let scorer = tfidf_scorer keywords in
  let r = request ~filter:(Filter.Size_at_most 6) ~limit:10 keywords in
  List.iteri
    (fun si script ->
      let mutated =
        List.fold_left
          (fun c (name, op) ->
            match op with
            | Some tree -> Corpus.replace c ~name tree
            | None -> Corpus.remove c ~name)
          Corpus.empty script
      in
      let survivors =
        List.fold_left
          (fun acc (name, op) ->
            let acc = List.remove_assoc name acc in
            match op with Some tree -> acc @ [ (name, tree) ] | None -> acc)
          [] script
      in
      let fresh = Corpus.of_documents survivors in
      Alcotest.(check (list string))
        (Printf.sprintf "script %d: same names" si)
        (Corpus.names fresh) (Corpus.names mutated);
      (match (Corpus.index mutated, Corpus.index fresh) with
      | Some mi, Some fi ->
          Alcotest.(check bool)
            (Printf.sprintf "script %d: index identical to rebuild" si)
            true (Corpus_index.equal fi mi)
      | _ -> (* a chaos leg degraded one side; answers still checked *) ());
      let baseline = full_scan ~scorer fresh r in
      List.iter
        (fun routing ->
          List.iter
            (fun shards ->
              List.iter
                (fun (variant, capacity) ->
                  let rc =
                    match capacity with
                    | None -> r
                    | Some capacity ->
                        Exec.Request.with_cache
                          (Some
                             (JC.create ~synchronized:true ~stripes:3
                                ~capacity ()))
                          r
                  in
                  let bound =
                    if routing then Corpus.score_bound mutated ~keywords
                    else None
                  in
                  let o =
                    Corpus.run ~routing ?bound ~shards ~scorer mutated rc
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "script %d routing=%b shards=%d %s == from-scratch" si
                       routing shards variant)
                    true
                    (hits_equal baseline o.Corpus.hits))
                (("no-cache", None)
                :: List.map (fun (v, c) -> (v, Some c)) cache_capacities))
            [ 1; 2; 7 ])
        [ false; true ])
    scripts

(* The retract rung of the maintenance ladder: an armed [index.retract]
   makes the incremental path fail, [remove] falls back to a full
   rebuild, and queries cannot tell the difference. *)
let test_retract_fault_falls_back_to_rebuild () =
  let c = make_wide_corpus () in
  let keywords = [ "mangrove" ] in
  let scorer = tfidf_scorer keywords in
  let r = request ~filter:(Filter.Size_at_most 6) ~limit:10 keywords in
  let before = Fault.count "index_retract_errors" in
  Fault.Failpoint.with_armed "index.retract" Fault.Raise (fun () ->
      let c' = Corpus.remove c ~name:"doc03.xml" in
      Alcotest.(check int) "retract fault counted" (before + 1)
        (Fault.count "index_retract_errors");
      Alcotest.(check bool) "index survives via rebuild" true
        (Corpus.index c' <> None);
      let fresh =
        Corpus.of_documents
          (List.filter (fun (n, _) -> n <> "doc03.xml") (wide_docs ()))
      in
      (match (Corpus.index c', Corpus.index fresh) with
      | Some ri, Some fi ->
          Alcotest.(check bool) "rebuilt index identical to from-scratch"
            true (Corpus_index.equal fi ri)
      | _ -> Alcotest.fail "both corpora should be indexed");
      Alcotest.(check bool) "answers identical" true
        (hits_equal (full_scan ~scorer fresh r)
           (Corpus.run ~shards:1 ~scorer c' r).Corpus.hits))

(* Both rungs fail: retract raises, the rebuild's [index.build] raises
   too — the index is dropped and the corpus serves full scans, with
   answers still identical to a from-scratch corpus of survivors. *)
let test_retract_and_rebuild_faults_drop_index () =
  let c = make_wide_corpus () in
  let keywords = [ "mangrove" ] in
  let scorer = tfidf_scorer keywords in
  let r = request ~filter:(Filter.Size_at_most 6) ~limit:10 keywords in
  Fault.Failpoint.with_armed "index.retract" Fault.Raise (fun () ->
      Fault.Failpoint.with_armed "index.build" Fault.Raise (fun () ->
          let c' = Corpus.remove c ~name:"doc03.xml" in
          Alcotest.(check bool) "index dropped" true (Corpus.index c' = None);
          let o = Corpus.run ~shards:1 ~scorer c' r in
          Alcotest.(check bool) "full scan reported" true
            (o.Corpus.routing = None);
          let fresh =
            Corpus.of_documents
              (List.filter (fun (n, _) -> n <> "doc03.xml") (wide_docs ()))
          in
          Alcotest.(check bool) "answers identical without an index" true
            (hits_equal (full_scan ~scorer fresh r) o.Corpus.hits)))

let () =
  Alcotest.run "corpus"
    [
      ( "structure",
        [
          Alcotest.test_case "documents" `Quick test_structure;
          Alcotest.test_case "duplicate name replaces" `Quick
            test_duplicate_name_replaces;
        ] );
      ( "search",
        [
          Alcotest.test_case "only matching docs" `Quick test_search_only_matching_documents;
          Alcotest.test_case "matches per-doc eval" `Quick test_search_matches_per_document_eval;
          Alcotest.test_case "scored ordering" `Quick test_search_scored_ordering;
          Alcotest.test_case "document frequency" `Quick test_document_frequency;
          Alcotest.test_case "fragments stay within documents" `Quick
            test_fragments_never_span_documents;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "bit-identical across strategies and strictness"
            `Quick test_sharded_identical_to_sequential;
          Alcotest.test_case "bit-identical unlimited, ties by doc/fragment"
            `Quick test_sharded_identical_unlimited_constant_score;
          Alcotest.test_case "limit is a prefix of the full merge" `Quick
            test_merge_limit_is_prefix;
          Alcotest.test_case "shard reports partition the corpus" `Quick
            test_shard_reports_partition_the_corpus;
          Alcotest.test_case "explicit zero-domain pool" `Quick
            test_explicit_pool_and_zero_domains;
          Alcotest.test_case
            "shared cache bit-identical across admissions and shards" `Quick
            test_sharded_cache_identical;
          Alcotest.test_case "shared cache serves hits in sharded runs" `Quick
            test_sharded_cache_serves_hits;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "pre-expired deadline is partial, no raise" `Quick
            test_deadline_already_expired_is_partial_not_raise;
          Alcotest.test_case "mid-run expiry yields consistent partial outcome"
            `Quick test_deadline_mid_run_yields_partial_outcome;
          Alcotest.test_case "expiry leaves the shared cache usable" `Quick
            test_deadline_does_not_poison_cache;
        ] );
      ( "containment",
        [
          Alcotest.test_case "non-deadline errors are contained" `Quick
            test_non_deadline_errors_are_contained;
          Alcotest.test_case
            "eval.document fault == corpus without the victim" `Quick
            test_eval_document_fault_is_contained;
          Alcotest.test_case "contained under every strategy" `Quick
            test_eval_document_fault_contained_across_strategies;
          Alcotest.test_case "eval.join fault == corpus without the victim"
            `Quick test_eval_join_fault_is_contained;
        ] );
      ( "routing",
        [
          Alcotest.test_case
            "routed bit-identical across strategies, strictness, shards" `Quick
            test_routed_identical_to_full_scan;
          Alcotest.test_case "routed bit-identical under cache admissions"
            `Quick test_routed_identical_under_cache_admissions;
          Alcotest.test_case "disagreeing scorers never change answers" `Quick
            test_disagreeing_scorer_never_changes_answers;
          Alcotest.test_case "empty intersection short-circuits" `Quick
            test_empty_intersection_short_circuits;
          Alcotest.test_case "only candidates are evaluated" `Quick
            test_routing_counts;
          Alcotest.test_case "bound skips fire and preserve answers" `Quick
            test_bound_skips_fire_and_preserve_answers;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "remove document" `Quick test_remove_document;
          Alcotest.test_case
            "interleavings bit-identical to from-scratch rebuild" `Quick
            test_mutation_equivalent_to_rebuild;
          Alcotest.test_case "retract fault falls back to rebuild" `Quick
            test_retract_fault_falls_back_to_rebuild;
          Alcotest.test_case "retract+rebuild faults drop the index" `Quick
            test_retract_and_rebuild_faults_drop_index;
        ] );
    ]
