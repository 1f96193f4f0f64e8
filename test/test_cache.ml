(* Tests for the join memo cache stack: the generic bounded LRU
   (lib/cache), fragment interning, per-document partitioning, the
   strategy-level [pays] model, mutex striping, and the headline
   guarantees — answers are bit-identical with the cache on or off (at
   any capacity and stripe count), cached and uncached pairwise joins
   agree on both results and Op_stats accounting, and the cache actually
   eliminates repeated fragment joins.

   The capacity-sensitive checks run at [capacities]: 0 (the disabled
   cache, through the same code path), 7 (tiny, so evictions happen
   constantly) and the default. *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Join = Xfrag_core.Join
module Join_cache = Xfrag_core.Join_cache
module Fixed_point = Xfrag_core.Fixed_point
module Reduce = Xfrag_core.Reduce
module Eval = Xfrag_core.Eval
module Query = Xfrag_core.Query
module Filter = Xfrag_core.Filter
module Op_stats = Xfrag_core.Op_stats
module Paper = Xfrag_workload.Paper_doc
module Random_tree = Xfrag_workload.Random_tree
module Prng = Xfrag_util.Prng

let set_testable = Alcotest.testable Frag_set.pp Frag_set.equal

let capacities = [ 0; 7; Join_cache.default_capacity ]

(* --- generic LRU --- *)

module Int_lru = Xfrag_cache.Lru.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

let test_lru_eviction_order () =
  let c = Int_lru.create ~capacity:2 () in
  Int_lru.add c 1 "one";
  Int_lru.add c 2 "two";
  (* Touch 1 so 2 becomes least recently used. *)
  Alcotest.(check (option string)) "hit 1" (Some "one") (Int_lru.find c 1);
  Int_lru.add c 3 "three";
  Alcotest.(check int) "one eviction" 1 (Int_lru.evictions c);
  Alcotest.(check int) "length stays at capacity" 2 (Int_lru.length c);
  Alcotest.(check (option string)) "2 evicted" None (Int_lru.find c 2);
  Alcotest.(check (option string)) "1 survives" (Some "one") (Int_lru.find c 1);
  (* Re-adding an existing key replaces in place, no eviction. *)
  Int_lru.add c 3 "THREE";
  Alcotest.(check int) "still one eviction" 1 (Int_lru.evictions c);
  Alcotest.(check (option string)) "replaced" (Some "THREE") (Int_lru.find c 3)

let test_lru_readd_refreshes_recency () =
  let c = Int_lru.create ~capacity:2 () in
  Int_lru.add c 1 "one";
  Int_lru.add c 2 "two";
  (* Re-adding 1 makes 2 the least recently used entry. *)
  Int_lru.add c 1 "ONE";
  Int_lru.add c 3 "three";
  Alcotest.(check (option string)) "2 evicted" None (Int_lru.find c 2);
  Alcotest.(check (option string)) "1 refreshed" (Some "ONE") (Int_lru.find c 1);
  Alcotest.(check (option string)) "3 present" (Some "three") (Int_lru.find c 3)

let test_lru_disabled () =
  let c = Int_lru.create ~capacity:0 () in
  Int_lru.add c 1 "one";
  Alcotest.(check int) "stores nothing" 0 (Int_lru.length c);
  Alcotest.(check (option string)) "always misses" None (Int_lru.find c 1);
  Alcotest.(check int) "no eviction" 0 (Int_lru.evictions c)

(* --- fragment interner --- *)

let test_interner () =
  let ctx = Paper.figure3_context () in
  let i = Fragment.Interner.create () in
  let f1 = Fragment.of_nodes ctx [ 4; 5 ] in
  let f1' = Fragment.of_nodes ctx [ 4; 5 ] in
  let f2 = Fragment.of_nodes ctx [ 7; 9 ] in
  let id1 = Fragment.Interner.intern i f1 in
  Alcotest.(check int) "structural equality shares ids" id1
    (Fragment.Interner.intern i f1');
  Alcotest.(check bool) "distinct fragments get distinct ids" true
    (Fragment.Interner.intern i f2 <> id1);
  Alcotest.(check int) "two interned" 2 (Fragment.Interner.size i);
  Alcotest.(check (option int)) "find does not allocate ids" (Some id1)
    (Fragment.Interner.find i f1);
  Alcotest.(check (option int)) "unseen fragment not found" None
    (Fragment.Interner.find i (Fragment.of_nodes ctx [ 3; 6 ]));
  Fragment.Interner.clear i;
  Alcotest.(check int) "clear restarts" 0 (Fragment.Interner.size i)

(* --- Join_cache behaviour --- *)

let test_join_cache_hits () =
  let ctx = Paper.figure3_context () in
  let cache = Join_cache.create ~capacity:64 () in
  let stats = Op_stats.create () in
  let f1 = Fragment.of_nodes ctx [ 4; 5 ] and f2 = Fragment.of_nodes ctx [ 7; 9 ] in
  let a = Join.fragment ~stats ~cache ctx f1 f2 in
  (* Commutativity: the swapped pair must hit the same entry. *)
  let b = Join.fragment ~stats ~cache ctx f2 f1 in
  Alcotest.(check bool) "same result" true (Fragment.equal a b);
  Alcotest.(check int) "one computed join" 1 stats.Op_stats.fragment_joins;
  Alcotest.(check int) "one hit" 1 stats.Op_stats.cache_hits;
  Alcotest.(check int) "one miss" 1 stats.Op_stats.cache_misses;
  Alcotest.(check int) "cache agrees" 1 (Join_cache.hits cache)

let test_join_cache_per_document_partitions () =
  let cache = Join_cache.create ~capacity:64 () in
  let ctx1 = Paper.figure3_context () in
  let f1 = Fragment.of_nodes ctx1 [ 4; 5 ] and f2 = Fragment.of_nodes ctx1 [ 7; 9 ] in
  ignore (Join.fragment ~cache ctx1 f1 f2);
  Alcotest.(check int) "entry cached" 1 (Join_cache.length cache);
  (* A rebuilt context gets a fresh generation; it must get its own
     partition — never a stale hit — while the old document's entry
     stays warm. *)
  let ctx2 = Paper.figure3_context () in
  Alcotest.(check bool) "generations differ" true
    (Context.generation ctx1 <> Context.generation ctx2);
  let stats = Op_stats.create () in
  ignore (Join.fragment ~stats ~cache ctx2 f1 f2);
  Alcotest.(check int) "stale entry not served" 1 stats.Op_stats.cache_misses;
  Alcotest.(check int) "no invalidation" 0 (Join_cache.invalidations cache);
  Alcotest.(check int) "both partitions live" 2 (Join_cache.partitions cache);
  Alcotest.(check int) "both entries live" 2 (Join_cache.length cache);
  (* Returning to the first document hits its still-warm partition —
     the old single-generation design re-missed here. *)
  let stats1 = Op_stats.create () in
  ignore (Join.fragment ~stats:stats1 ~cache ctx1 f1 f2);
  Alcotest.(check int) "first document still warm" 1 stats1.Op_stats.cache_hits

let test_join_cache_retire () =
  (* The document-mutation hook: a PUT/DELETE retires exactly the
     replaced document's partition (by retired generation), the other
     resident documents stay warm, and the dead interner goes with the
     partition so a recycled generation could never be served stale
     fragments. *)
  let cache = Join_cache.create ~capacity:64 () in
  let serve ctx =
    let stats = Op_stats.create () in
    let f1 = Fragment.of_nodes ctx [ 4; 5 ]
    and f2 = Fragment.of_nodes ctx [ 7; 9 ] in
    ignore (Join.fragment ~stats ~cache ctx f1 f2);
    stats
  in
  let ctx1 = Paper.figure3_context () in
  let ctx2 = Paper.figure3_context () in
  ignore (serve ctx1);
  ignore (serve ctx2);
  Alcotest.(check int) "two partitions warm" 2 (Join_cache.partitions cache);
  Join_cache.retire cache ~generation:(Context.generation ctx1);
  Alcotest.(check int) "retired partition dropped" 1
    (Join_cache.partitions cache);
  Alcotest.(check int) "non-empty retirement counts as invalidation" 1
    (Join_cache.invalidations cache);
  let stats2 = serve ctx2 in
  Alcotest.(check int) "survivor still warm" 1 stats2.Op_stats.cache_hits;
  let stats1 = serve ctx1 in
  Alcotest.(check int) "retired document re-misses" 1
    stats1.Op_stats.cache_misses;
  (* Retiring a generation nobody holds is a no-op, not an error. *)
  Join_cache.retire cache ~generation:(-1);
  Alcotest.(check int) "unknown generation is a no-op" 1
    (Join_cache.invalidations cache)

let test_join_cache_partition_eviction () =
  (* Only [max_docs] per-document partitions are retained per stripe;
     the least recently used one is dropped (counted as an
     invalidation), so re-serving that document misses. *)
  let cache = Join_cache.create ~capacity:64 ~max_docs:2 () in
  let serve ctx =
    let stats = Op_stats.create () in
    let f1 = Fragment.of_nodes ctx [ 4; 5 ] and f2 = Fragment.of_nodes ctx [ 7; 9 ] in
    ignore (Join.fragment ~stats ~cache ctx f1 f2);
    stats
  in
  let ctx1 = Paper.figure3_context () in
  let ctx2 = Paper.figure3_context () in
  let ctx3 = Paper.figure3_context () in
  ignore (serve ctx1);
  ignore (serve ctx2);
  ignore (serve ctx3);
  Alcotest.(check int) "bounded partitions" 2 (Join_cache.partitions cache);
  Alcotest.(check int) "oldest partition invalidated" 1
    (Join_cache.invalidations cache);
  let stats = serve ctx1 in
  Alcotest.(check int) "evicted document re-misses" 1 stats.Op_stats.cache_misses

let test_admission_pays () =
  (* The cache is attached only to pruned strategies, and never when it
     cannot store anything. *)
  let pays capacity pruned =
    Join_cache.pays (Join_cache.create ~capacity ()) ~pruned
  in
  Alcotest.(check bool) "pruned" true (pays 8 true);
  Alcotest.(check bool) "unpruned" false (pays 8 false);
  Alcotest.(check bool) "capacity 0, pruned" false (pays 0 true);
  Alcotest.(check bool) "capacity 0, unpruned" false (pays 0 false)

let test_join_cache_eviction_correctness () =
  (* A 2-entry cache under a workload with many distinct pairs: lots of
     evictions, answers still exact. *)
  let ctx = Random_tree.context ~seed:99 ~size:40 in
  let prng = Prng.create 99 in
  let s1 = Frag_set.of_list (List.init 8 (fun _ -> Random_tree.fragment ctx prng)) in
  let s2 = Frag_set.of_list (List.init 8 (fun _ -> Random_tree.fragment ctx prng)) in
  let cache = Join_cache.create ~capacity:2 () in
  let cached = Join.pairwise ~cache ctx s1 s2 in
  Alcotest.check set_testable "tiny cache, same answers"
    (Join.pairwise ctx s1 s2) cached;
  Alcotest.(check bool) "evictions happened" true (Join_cache.evictions cache > 0);
  Alcotest.(check bool) "length bounded" true (Join_cache.length cache <= 2)

let test_join_cache_metrics_assoc () =
  let cache = Join_cache.create ~capacity:8 () in
  let keys = List.map fst (Join_cache.metrics_assoc cache) in
  List.iter
    (fun k -> Alcotest.(check bool) k true (List.mem k keys))
    [
      "cache.hits"; "cache.misses"; "cache.evictions"; "cache.invalidations";
      "cache.rejected"; "cache.entries"; "cache.interned"; "cache.partitions";
      "cache.stripes";
    ]

(* --- fewer joins with the cache on --- *)

let test_cache_reduces_fragment_joins () =
  let ctx = Random_tree.context ~seed:7 ~size:50 in
  let prng = Prng.create 7 in
  let seed =
    Frag_set.of_list
      (List.init 10 (fun _ -> Fragment.singleton (Random_tree.fragment ctx prng |> Fragment.root)))
  in
  let plain = Op_stats.create () in
  let baseline = Fixed_point.naive ~stats:plain ctx seed in
  let cached_stats = Op_stats.create () in
  let cache = Join_cache.create ~capacity:(1 lsl 12) () in
  let cached = Fixed_point.naive ~stats:cached_stats ~cache ctx seed in
  Alcotest.check set_testable "fixed point unchanged" baseline cached;
  Alcotest.(check bool) "cache hits occurred" true
    (cached_stats.Op_stats.cache_hits > 0);
  Alcotest.(check bool) "fewer joins computed" true
    (cached_stats.Op_stats.fragment_joins < plain.Op_stats.fragment_joins);
  Alcotest.(check int) "work is conserved"
    plain.Op_stats.fragment_joins
    (cached_stats.Op_stats.fragment_joins + cached_stats.Op_stats.cache_hits)

(* --- property: cached and uncached pairwise joins agree --- *)

let prop_pairwise_cached_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"serial = cached at three capacities"
       ~count:60
       QCheck2.Gen.(pair (1 -- 10_000) (2 -- 40))
       (fun (seed, size) ->
         let ctx = Random_tree.context ~seed ~size in
         let prng = Prng.create (seed * 13) in
         let s1 =
           Frag_set.of_list (List.init 9 (fun _ -> Random_tree.fragment ctx prng))
         in
         let s2 =
           Frag_set.of_list (List.init 6 (fun _ -> Random_tree.fragment ctx prng))
         in
         let serial_stats = Op_stats.create () in
         let serial = Join.pairwise ~stats:serial_stats ctx s1 s2 in
         List.iter
           (fun capacity ->
             let stats = Op_stats.create () in
             let cache = Join_cache.create ~capacity () in
             let cached = Join.pairwise ~stats ~cache ctx s1 s2 in
             if not (Frag_set.equal serial cached) then
               QCheck2.Test.fail_reportf "capacity %d: sets differ" capacity;
             if stats.Op_stats.candidates <> serial_stats.Op_stats.candidates then
               QCheck2.Test.fail_reportf "capacity %d: candidates %d <> serial %d"
                 capacity stats.Op_stats.candidates
                 serial_stats.Op_stats.candidates;
             if stats.Op_stats.duplicates <> serial_stats.Op_stats.duplicates then
               QCheck2.Test.fail_reportf "capacity %d: duplicates %d <> serial %d"
                 capacity stats.Op_stats.duplicates
                 serial_stats.Op_stats.duplicates;
             (* Within one pairwise join, every candidate is either
                computed or served from the memo table. *)
             if
               stats.Op_stats.fragment_joins + stats.Op_stats.cache_hits
               <> serial_stats.Op_stats.fragment_joins
             then
               QCheck2.Test.fail_reportf
                 "capacity %d: joins %d + hits %d <> uncached joins %d" capacity
                 stats.Op_stats.fragment_joins stats.Op_stats.cache_hits
                 serial_stats.Op_stats.fragment_joins)
           capacities;
         true))

(* --- cache on/off equality across every strategy, Table 1 document --- *)

(* The cache configurations the transparency tests sweep: the default
   cache at every capacity in [capacities], and striped synchronized
   variants — answers must be bit-identical under all of them. *)
let cache_variants () =
  List.map
    (fun capacity ->
      (Printf.sprintf "capacity-%d" capacity, Join_cache.create ~capacity ()))
    capacities
  @ [
      ("striped-2", Join_cache.create ~synchronized:true ~stripes:2 ());
      ("striped-7", Join_cache.create ~synchronized:true ~stripes:7 ());
    ]

let test_strategies_cache_transparent () =
  let ctx = Paper.figure1_context () in
  let queries =
    [
      (Query.make ~filter:(Filter.Size_at_most 3) Paper.query_keywords, false);
      (Query.make ~filter:Filter.True Paper.query_keywords, false);
      (Query.make ~filter:(Filter.Size_at_most 3) Paper.query_keywords, true);
    ]
  in
  List.iter
    (fun strategy ->
      List.iter
        (fun (q, strict) ->
          let baseline = Eval.answers ~strategy ~strict_leaf_semantics:strict ctx q in
          List.iter
            (fun (variant, cache) ->
              let cached =
                Eval.answers ~strategy ~strict_leaf_semantics:strict ~cache ctx q
              in
              Alcotest.check set_testable
                (Printf.sprintf "%s%s/%s cache-transparent"
                   (Eval.strategy_name strategy)
                   (if strict then " (strict)" else "")
                   variant)
                baseline cached;
              (* One shared cache across repeated evaluations must also
                 be transparent (this is the service configuration). *)
              let again =
                Eval.answers ~strategy ~strict_leaf_semantics:strict ~cache ctx q
              in
              Alcotest.check set_testable
                (Printf.sprintf "%s/%s warm re-run"
                   (Eval.strategy_name strategy)
                   variant)
                baseline again)
            (cache_variants ()))
        queries)
    (Eval.Auto :: Eval.all_strategies)

(* --- cross-document sharing: the regression this PR exists for --- *)

let test_cross_document_sharing_stays_warm () =
  (* One shared (synchronized, striped) cache, two documents, requests
     alternating between them — the old single-generation design
     invalidated the whole table on every switch (zero hits forever);
     per-document partitions must keep both documents warm: hit count
     grows every round after the first and no invalidation ever fires. *)
  let cache =
    Join_cache.create ~synchronized:true ~stripes:4 ()
  in
  let ctx_a = Paper.figure1_context () in
  let ctx_b = Random_tree.context ~seed:11 ~size:30 in
  let q = Query.make ~filter:(Filter.Size_at_most 4) Paper.query_keywords in
  let qb = Query.make ~filter:(Filter.Size_at_most 4) [ "n1"; "n2" ] in
  let baseline_a = Eval.answers ~strategy:Eval.Semi_naive ctx_a q in
  let baseline_b = Eval.answers ~strategy:Eval.Semi_naive ctx_b qb in
  let round () =
    Alcotest.check set_testable "doc A answers stable" baseline_a
      (Eval.answers ~strategy:Eval.Semi_naive ~cache ctx_a q);
    Alcotest.check set_testable "doc B answers stable" baseline_b
      (Eval.answers ~strategy:Eval.Semi_naive ~cache ctx_b qb)
  in
  round ();
  let warm = Join_cache.hits cache in
  let prev = ref warm in
  for _ = 1 to 3 do
    round ();
    let now = Join_cache.hits cache in
    Alcotest.(check bool) "hits grow every alternating round" true (now > !prev);
    prev := now
  done;
  Alcotest.(check int) "no invalidation storm" 0 (Join_cache.invalidations cache);
  (* Partitions are per (stripe, document): both documents hold at
     least one, and nothing beyond what 2 documents over 4 stripes can
     occupy. *)
  let parts = Join_cache.partitions cache in
  Alcotest.(check bool) "both documents partitioned" true
    (parts >= 2 && parts <= 8)

let test_striped_cache_concurrent_domains () =
  (* Four domains hammer one striped cache across two documents; every
     evaluation must keep returning the baseline answer set. *)
  let cache =
    Join_cache.create ~synchronized:true ~stripes:4 ()
  in
  let ctx_a = Paper.figure1_context () in
  let ctx_b = Random_tree.context ~seed:23 ~size:40 in
  let q_a = Query.make ~filter:(Filter.Size_at_most 4) Paper.query_keywords in
  let q_b = Query.make ~filter:(Filter.Size_at_most 4) [ "n1"; "n3" ] in
  let baseline_a = Eval.answers ~strategy:Eval.Semi_naive ctx_a q_a in
  let baseline_b = Eval.answers ~strategy:Eval.Semi_naive ctx_b q_b in
  let errors = Atomic.make 0 in
  let worker i () =
    let ctx, q, baseline =
      if i mod 2 = 0 then (ctx_a, q_a, baseline_a) else (ctx_b, q_b, baseline_b)
    in
    for _ = 1 to 8 do
      let got = Eval.answers ~strategy:Eval.Semi_naive ~cache ctx q in
      if not (Frag_set.equal got baseline) then Atomic.incr errors
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "all concurrent answers exact" 0 (Atomic.get errors);
  Alcotest.(check bool) "shared cache saw traffic" true
    (Join_cache.hits cache + Join_cache.misses cache > 0)

let test_auto_probe_charged_once () =
  (* The Auto probe reduces each keyword set; when Set_reduction wins the
     probe's reduced seeds must be reused, not recomputed.  Compare
     against an explicit Set_reduction run: Auto's reduce work must not
     exceed it (it was exactly double before the fix). *)
  let ctx = Paper.figure1_context () in
  let q = Query.make ~filter:Filter.True Paper.query_keywords in
  let run strategy =
    Eval.exec ctx Xfrag_core.Exec.Request.(of_query q |> with_strategy strategy)
  in
  let auto = run Eval.Auto in
  let explicit = run Eval.Set_reduction in
  Alcotest.check set_testable "same answers" explicit.Eval.answers auto.Eval.answers;
  if auto.Eval.strategy_used = Eval.Set_reduction then
    Alcotest.(check int) "probe reduce reused, not repeated"
      explicit.Eval.stats.Op_stats.reduce_subset_checks
      auto.Eval.stats.Op_stats.reduce_subset_checks

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "re-add refreshes recency" `Quick
            test_lru_readd_refreshes_recency;
          Alcotest.test_case "capacity 0 is a no-op" `Quick test_lru_disabled;
        ] );
      ( "interner",
        [ Alcotest.test_case "dense ids, structural sharing" `Quick test_interner ] );
      ( "join-cache",
        [
          Alcotest.test_case "commutative hits" `Quick test_join_cache_hits;
          Alcotest.test_case "per-document partitions" `Quick
            test_join_cache_per_document_partitions;
          Alcotest.test_case "retire one generation" `Quick
            test_join_cache_retire;
          Alcotest.test_case "partition eviction bound" `Quick
            test_join_cache_partition_eviction;
          Alcotest.test_case "eviction keeps answers exact" `Quick
            test_join_cache_eviction_correctness;
          Alcotest.test_case "metrics assoc keys" `Quick test_join_cache_metrics_assoc;
          Alcotest.test_case "cache reduces fragment joins" `Quick
            test_cache_reduces_fragment_joins;
        ] );
      ( "admission",
        [ Alcotest.test_case "pays model" `Quick test_admission_pays ] );
      ( "sharing",
        [
          Alcotest.test_case "alternating documents stay warm" `Quick
            test_cross_document_sharing_stays_warm;
          Alcotest.test_case "striped cache under concurrent domains" `Quick
            test_striped_cache_concurrent_domains;
        ] );
      ( "properties",
        [
          prop_pairwise_cached_agrees;
          Alcotest.test_case "all strategies cache-transparent" `Quick
            test_strategies_cache_transparent;
          Alcotest.test_case "auto probe charged once" `Quick
            test_auto_probe_charged_once;
        ] );
    ]
