(* Tests for the document-tree substrate: construction, navigation,
   ancestor tests, LCA, tokenization, inverted index, statistics. *)

module Doctree = Xfrag_doctree.Doctree
module Lca = Xfrag_doctree.Lca
module Tokenizer = Xfrag_doctree.Tokenizer
module Index = Xfrag_doctree.Inverted_index
module Stats = Xfrag_doctree.Stats
module Int_sorted = Xfrag_util.Int_sorted
module Prng = Xfrag_util.Prng

let spec id parent label text =
  { Doctree.spec_id = id; spec_parent = parent; spec_label = label; spec_text = text }

(*      0
       / \
      1   4
     / \   \
    2   3   5   *)
let small () =
  Doctree.of_specs
    [
      spec 0 (-1) "a" "alpha";
      spec 1 0 "b" "beta gamma";
      spec 2 1 "c" "gamma";
      spec 3 1 "d" "";
      spec 4 0 "e" "delta";
      spec 5 4 "f" "beta";
    ]

let test_size_and_root () =
  let t = small () in
  Alcotest.(check int) "size" 6 (Doctree.size t);
  Alcotest.(check int) "root" 0 (Doctree.root t)

let test_parent () =
  let t = small () in
  Alcotest.(check (option int)) "root" None (Doctree.parent t 0);
  Alcotest.(check (option int)) "n2" (Some 1) (Doctree.parent t 2);
  Alcotest.(check (option int)) "n5" (Some 4) (Doctree.parent t 5);
  Alcotest.check_raises "parent_exn of root"
    (Invalid_argument "Doctree.parent_exn: the root has no parent") (fun () ->
      ignore (Doctree.parent_exn t 0))

let test_depth () =
  let t = small () in
  Alcotest.(check int) "root depth" 0 (Doctree.depth t 0);
  Alcotest.(check int) "n1" 1 (Doctree.depth t 1);
  Alcotest.(check int) "n2" 2 (Doctree.depth t 2);
  Alcotest.(check int) "max depth" 2 (Doctree.max_depth t)

let test_children_order () =
  let t = small () in
  Alcotest.(check (list int)) "root children" [ 1; 4 ] (Doctree.children t 0);
  Alcotest.(check (list int)) "n1 children" [ 2; 3 ] (Doctree.children t 1);
  Alcotest.(check (list int)) "leaf" [] (Doctree.children t 2)

let test_siblings () =
  let t = small () in
  Alcotest.(check (option int)) "first child of 1" (Some 2) (Doctree.first_child t 1);
  Alcotest.(check (option int)) "next sibling of 2" (Some 3) (Doctree.next_sibling t 2);
  Alcotest.(check (option int)) "last sibling" None (Doctree.next_sibling t 3);
  Alcotest.(check (option int)) "root has no sibling" None (Doctree.next_sibling t 0)

let test_is_leaf () =
  let t = small () in
  List.iter (fun n -> Alcotest.(check bool) (string_of_int n) true (Doctree.is_leaf t n))
    [ 2; 3; 5 ];
  List.iter (fun n -> Alcotest.(check bool) (string_of_int n) false (Doctree.is_leaf t n))
    [ 0; 1; 4 ]

let test_ancestor () =
  let t = small () in
  Alcotest.(check bool) "0 anc 5" true (Doctree.is_ancestor t 0 5);
  Alcotest.(check bool) "1 anc 3" true (Doctree.is_ancestor t 1 3);
  Alcotest.(check bool) "1 not anc 5" false (Doctree.is_ancestor t 1 5);
  Alcotest.(check bool) "not self" false (Doctree.is_ancestor t 2 2);
  Alcotest.(check bool) "or self" true (Doctree.is_ancestor_or_self t 2 2);
  Alcotest.(check bool) "child not anc of parent" false (Doctree.is_ancestor t 2 1)

let test_subtree () =
  let t = small () in
  Alcotest.(check int) "whole tree" 6 (Doctree.subtree_size t 0);
  Alcotest.(check int) "n1 subtree" 3 (Doctree.subtree_size t 1);
  Alcotest.(check int) "leaf subtree" 1 (Doctree.subtree_size t 5);
  Alcotest.(check (list int)) "n1 nodes" [ 1; 2; 3 ]
    (Int_sorted.to_list (Doctree.subtree_nodes t 1))

let test_leaf_intervals () =
  let t = small () in
  (* Leaves in document order: 2, 3, 5 → ranks 0, 1, 2. *)
  Alcotest.(check int) "leaf count" 3 (Doctree.leaf_count t);
  Alcotest.(check (pair int int)) "leaf 2" (0, 0) (Doctree.leaf_interval t 2);
  Alcotest.(check (pair int int)) "leaf 3" (1, 1) (Doctree.leaf_interval t 3);
  Alcotest.(check (pair int int)) "leaf 5" (2, 2) (Doctree.leaf_interval t 5);
  Alcotest.(check (pair int int)) "n1 spans leaves 0-1" (0, 1) (Doctree.leaf_interval t 1);
  Alcotest.(check (pair int int)) "n4 spans leaf 2" (2, 2) (Doctree.leaf_interval t 4);
  Alcotest.(check (pair int int)) "root spans all" (0, 2) (Doctree.leaf_interval t 0)

let test_path_to_ancestor () =
  let t = small () in
  Alcotest.(check (list int)) "n2 to root" [ 2; 1; 0 ] (Doctree.path_to_ancestor t 2 0);
  Alcotest.(check (list int)) "self" [ 3 ] (Doctree.path_to_ancestor t 3 3);
  Alcotest.check_raises "not an ancestor"
    (Invalid_argument "Doctree.path_to_ancestor: second node is not an ancestor")
    (fun () -> ignore (Doctree.path_to_ancestor t 2 4))

let test_of_specs_rejects_bad_input () =
  let expect_invalid name specs =
    match Doctree.of_specs specs with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "empty" [];
  expect_invalid "gap in ids" [ spec 0 (-1) "a" ""; spec 2 0 "b" "" ];
  expect_invalid "parent after child" [ spec 0 (-1) "a" ""; spec 1 2 "b" ""; spec 2 0 "c" "" ];
  expect_invalid "root with parent" [ spec 0 3 "a" "" ];
  (* Non-pre-order: node 3's parent is 1, but node 2 (a child of 0)
     closes 1's interval first. *)
  expect_invalid "not pre-order"
    [ spec 0 (-1) "a" ""; spec 1 0 "b" ""; spec 2 0 "c" ""; spec 3 1 "d" "" ]

let test_of_xml () =
  let doc = Xfrag_xml.Xml_parser.parse_string
      {|<article><sec t="intro">hello <b>bold</b> tail</sec><sec/></article>|}
  in
  let t = Doctree.of_xml doc in
  Alcotest.(check int) "element count" 4 (Doctree.size t);
  Alcotest.(check string) "root label" "article" (Doctree.label t 0);
  Alcotest.(check string) "first sec" "sec" (Doctree.label t 1);
  Alcotest.(check string) "bold label" "b" (Doctree.label t 2);
  Alcotest.(check (list int)) "root children" [ 1; 3 ] (Doctree.children t 0);
  (* Attribute name/value folded into node text, per the paper. *)
  Alcotest.(check bool) "attr searchable" true
    (Tokenizer.contains_keyword (Doctree.text t 1) ~keyword:"intro");
  Alcotest.(check bool) "direct text" true
    (Tokenizer.contains_keyword (Doctree.text t 1) ~keyword:"hello");
  Alcotest.(check bool) "descendant text not inherited" false
    (Tokenizer.contains_keyword (Doctree.text t 1) ~keyword:"bold")

let test_validate_ok () =
  match Doctree.validate (small ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected valid tree, got %s" e

let test_deep_tree_no_stack_overflow () =
  let n = 200_000 in
  let specs =
    List.init n (fun id -> spec id (if id = 0 then -1 else id - 1) "n" "")
  in
  let t = Doctree.of_specs specs in
  Alcotest.(check int) "depth" (n - 1) (Doctree.max_depth t);
  Alcotest.(check int) "subtree" n (Doctree.subtree_size t 0)

(* --- generated documents --- *)

module Xml_dom = Xfrag_xml.Xml_dom

(* Pre-order (label, parent id) of every element by plain recursion over
   the DOM: the reference for [Doctree.of_xml]'s explicit work stack. *)
let dom_preorder (root : Xml_dom.element) =
  let acc = ref [] and next = ref 0 in
  let rec go parent (e : Xml_dom.element) =
    let id = !next in
    incr next;
    acc := (e.name, parent) :: !acc;
    List.iter (go id) (Xml_dom.child_elements e)
  in
  go (-1) root;
  List.rev !acc

let of_xml_generated_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"of_xml = recursive DOM walk" ~count:40
       QCheck2.Gen.(1 -- 10_000)
       (fun seed ->
         let doc =
           Xfrag_xml.Xml_parser.parse_string
             (Xfrag_workload.Docgen.generate_xml
                { Xfrag_workload.Docgen.default with seed; sections = 2 })
         in
         let t = Doctree.of_xml doc in
         Doctree.validate t = Ok ()
         && List.map
              (fun n ->
                (Doctree.label t n, Option.value (Doctree.parent t n) ~default:(-1)))
              (Doctree.all_nodes t)
            = dom_preorder doc.root))

(* --- codec --- *)

module Codec = Xfrag_doctree.Codec

let trees_equal a b =
  Doctree.size a = Doctree.size b
  && List.for_all
       (fun n ->
         Doctree.parent a n = Doctree.parent b n
         && Doctree.label a n = Doctree.label b n
         && Doctree.text a n = Doctree.text b n)
       (Doctree.all_nodes a)

let test_codec_roundtrip () =
  let t = small () in
  match Codec.of_string (Codec.to_string t) with
  | Ok t' -> Alcotest.(check bool) "round trip" true (trees_equal t t')
  | Error e -> Alcotest.fail e

let test_codec_escaping () =
  let t =
    Doctree.of_specs
      [
        spec 0 (-1) "root" "tab\there";
        spec 1 0 "n" "newline\nand % percent\r";
      ]
  in
  match Codec.of_string (Codec.to_string t) with
  | Ok t' ->
      Alcotest.(check string) "tab preserved" "tab\there" (Doctree.text t' 0);
      Alcotest.(check string) "newline preserved" "newline\nand % percent\r"
        (Doctree.text t' 1)
  | Error e -> Alcotest.fail e

let test_codec_rejects_garbage () =
  List.iter
    (fun input ->
      match Codec.of_string input with
      | Ok _ -> Alcotest.failf "expected error for %S" input
      | Error _ -> ())
    [
      "";
      "not a doctree";
      "xfrag-doctree 999 1\n0\t-1\ta\tb\n";
      "xfrag-doctree 1 2\n0\t-1\ta\tb\n";
      "xfrag-doctree 1 1\nmalformed\n";
      "xfrag-doctree 1 2\n0\t-1\ta\t\n1\t5\tb\t\n";
    ]

let test_codec_file_roundtrip () =
  let t = Xfrag_workload.Paper_doc.figure1 () in
  let path = Filename.temp_file "xfrag_codec" ".doctree" in
  Codec.save t path;
  let result = Codec.load path in
  Sys.remove path;
  match result with
  | Ok t' ->
      Alcotest.(check bool) "file round trip" true (trees_equal t t');
      (* The reloaded tree supports queries identically. *)
      let ctx = Xfrag_core.Context.create t' in
      Alcotest.(check int) "postings survive" 2
        (Index.node_count ctx.Xfrag_core.Context.index "xquery")
  | Error e -> Alcotest.fail e

let codec_roundtrip_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"codec round trip on random trees" ~count:100
       QCheck2.Gen.(pair (1 -- 10_000) (1 -- 60))
       (fun (seed, size) ->
         let t = Xfrag_workload.Random_tree.tree ~seed ~size in
         match Codec.of_string (Codec.to_string t) with
         | Ok t' -> trees_equal t t'
         | Error _ -> false))

(* --- LCA --- *)

let naive_lca t a b =
  let rec ancestors n acc =
    let acc = n :: acc in
    match Doctree.parent t n with None -> acc | Some p -> ancestors p acc
  in
  let pa = ancestors a [] and pb = ancestors b [] in
  let rec common last = function
    | x :: xs, y :: ys when x = y -> common x (xs, ys)
    | _ -> last
  in
  common (-1) (pa, pb)

let test_lca_small () =
  let t = small () in
  let l = Lca.build t in
  Alcotest.(check int) "2,3 -> 1" 1 (Lca.lca l 2 3);
  Alcotest.(check int) "2,5 -> 0" 0 (Lca.lca l 2 5);
  Alcotest.(check int) "1,2 -> 1" 1 (Lca.lca l 1 2);
  Alcotest.(check int) "self" 4 (Lca.lca l 4 4);
  Alcotest.(check int) "many" 0 (Lca.lca_many l [ 2; 3; 5 ]);
  Alcotest.(check int) "many single" 2 (Lca.lca_many l [ 2 ])

let test_lca_distance_path () =
  let t = small () in
  let l = Lca.build t in
  Alcotest.(check int) "distance 2,3" 2 (Lca.distance l 2 3);
  Alcotest.(check int) "distance 2,5" 4 (Lca.distance l 2 5);
  Alcotest.(check int) "distance self" 0 (Lca.distance l 3 3);
  Alcotest.(check (list int)) "path 2->5" [ 2; 1; 0; 4; 5 ] (Lca.path l 2 5);
  Alcotest.(check (list int)) "path down" [ 0; 1; 3 ] (Lca.path l 0 3);
  Alcotest.(check (list int)) "path self" [ 2 ] (Lca.path l 2 2)

let lca_matches_naive_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"sparse-table LCA matches naive" ~count:100
       QCheck2.Gen.(pair (1 -- 1000) (2 -- 60))
       (fun (seed, size) ->
         let t = Xfrag_workload.Random_tree.tree ~seed ~size in
         let l = Lca.build t in
         let prng = Prng.create seed in
         let ok = ref true in
         for _ = 1 to 50 do
           let a = Prng.int prng size and b = Prng.int prng size in
           if Lca.lca l a b <> naive_lca t a b then ok := false
         done;
         !ok))

(* --- tokenizer --- *)

let test_tokenize_basic () =
  Alcotest.(check (list string)) "tokens" [ "hello"; "world"; "42" ]
    (Tokenizer.tokenize "Hello, WORLD! 42")

let test_tokenize_empty_and_punct () =
  Alcotest.(check (list string)) "empty" [] (Tokenizer.tokenize "");
  Alcotest.(check (list string)) "punct only" [] (Tokenizer.tokenize "!!! ... ---")

let test_keyword_set_dedups () =
  Alcotest.(check (list string)) "set" [ "a"; "b" ] (Tokenizer.keyword_set "a b A B a")

let test_min_length_option () =
  let options = { Tokenizer.min_length = 3; stopwords = false; stem = false } in
  Alcotest.(check (list string)) "short dropped" [ "abc"; "wxyz" ]
    (Tokenizer.tokenize ~options "ab abc b wxyz")

let test_stopwords_option () =
  let options = { Tokenizer.min_length = 1; stopwords = true; stem = false } in
  Alcotest.(check (list string)) "stopwords dropped" [ "quick"; "fox" ]
    (Tokenizer.tokenize ~options "the quick fox");
  Alcotest.(check bool) "is_stopword" true (Tokenizer.is_stopword "The")

let test_contains_keyword () =
  Alcotest.(check bool) "case-insensitive whole token" true
    (Tokenizer.contains_keyword "Querying XML Documents" ~keyword:"xml");
  Alcotest.(check bool) "substring does not match" false
    (Tokenizer.contains_keyword "metaxml here" ~keyword:"xml")

(* --- stemmer --- *)

module Stemmer = Xfrag_doctree.Stemmer

let test_stemmer_standard_examples () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Stemmer.stem input))
    [
      (* step 1a *)
      ("caresses", "caress"); ("ponies", "poni"); ("caress", "caress"); ("cats", "cat");
      (* step 1b *)
      ("feed", "feed"); ("agreed", "agre"); ("plastered", "plaster");
      ("motoring", "motor"); ("sing", "sing"); ("conflated", "conflat");
      ("hopping", "hop"); ("tanned", "tan"); ("falling", "fall"); ("hissing", "hiss");
      ("failing", "fail"); ("filing", "file");
      (* step 1c *)
      ("happy", "happi"); ("sky", "sky");
      (* step 2 *)
      ("relational", "relat"); ("conditional", "condit"); ("rational", "ration");
      ("digitizer", "digit"); ("operator", "oper"); ("feudalism", "feudal");
      ("decisiveness", "decis"); ("hopefulness", "hope"); ("callousness", "callous");
      (* step 3 *)
      ("triplicate", "triplic"); ("formative", "form"); ("formalize", "formal");
      ("electrical", "electr"); ("hopeful", "hope"); ("goodness", "good");
      (* step 4 *)
      ("allowance", "allow"); ("inference", "infer"); ("airliner", "airlin");
      ("adjustable", "adjust"); ("replacement", "replac"); ("adoption", "adopt");
      ("communism", "commun"); ("effective", "effect");
      (* step 5 *)
      ("probate", "probat"); ("rate", "rate"); ("cease", "ceas"); ("controll", "control");
      ("roll", "roll");
      (* the running example's keywords *)
      ("optimization", "optim"); ("optimizations", "optim");
      (* guards *)
      ("at", "at"); ("caf\xC3\xA9", "caf\xC3\xA9");
    ]

let test_stemmed_tokenization () =
  let options = { Tokenizer.default_options with stem = true } in
  Alcotest.(check (list string)) "stemmed tokens" [ "optim"; "queri" ]
    (Tokenizer.tokenize ~options "Optimizations queries");
  Alcotest.(check bool) "contains via stem" true
    (Tokenizer.contains_keyword ~options "several optimizations applied"
       ~keyword:"optimization")

let test_stemmed_index_end_to_end () =
  (* With a stemming index, the query keyword 'optimizations' matches
     text containing 'optimization' (and vice versa). *)
  let tree = Xfrag_workload.Paper_doc.figure1 () in
  let options = { Tokenizer.default_options with stem = true } in
  let idx = Index.build ~options tree in
  Alcotest.(check (list int)) "plural query" [ 16; 17; 81 ]
    (Int_sorted.to_list (Index.lookup idx "optimizations"));
  Alcotest.(check bool) "node_contains stems" true
    (Index.node_contains idx 16 "optimizations");
  (* Unstemmed index: no match for the plural. *)
  let plain = Index.build tree in
  Alcotest.(check (list int)) "plain misses plural" []
    (Int_sorted.to_list (Index.lookup plain "optimizations"))

let stemmer_shortens_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"stemmer never lengthens by more than one" ~count:300
       QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 15))
       (fun w ->
         (* step 1b can append 'e' after chopping, so +1 is possible on
            contrived inputs, but never more. *)
         String.length (Stemmer.stem w) <= String.length w + 1))

let stemmer_total_prop =
  (* Porter is famously not idempotent; what must hold is totality and
     output shape: always non-empty, always lower-case ASCII. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"stemmer is total and shape-preserving" ~count:300
       QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 15))
       (fun w ->
         let s = Stemmer.stem w in
         String.length s > 0 && String.for_all (fun c -> c >= 'a' && c <= 'z') s))

(* --- inverted index --- *)

let test_index_lookup () =
  let t = small () in
  let idx = Index.build t in
  Alcotest.(check (list int)) "beta" [ 1; 5 ] (Int_sorted.to_list (Index.lookup idx "beta"));
  Alcotest.(check (list int)) "gamma" [ 1; 2 ] (Int_sorted.to_list (Index.lookup idx "gamma"));
  Alcotest.(check (list int)) "missing" [] (Int_sorted.to_list (Index.lookup idx "nope"));
  Alcotest.(check int) "node_count" 2 (Index.node_count idx "beta")

let test_index_includes_labels () =
  let t = small () in
  let idx = Index.build t in
  (* label of node 4 is "e" *)
  Alcotest.(check bool) "label indexed" true
    (Int_sorted.mem 4 (Index.lookup idx "e"))

let test_index_case_insensitive () =
  let t = small () in
  let idx = Index.build t in
  Alcotest.(check (list int)) "BETA" [ 1; 5 ] (Int_sorted.to_list (Index.lookup idx "BETA"))

let test_node_contains () =
  let t = small () in
  let idx = Index.build t in
  Alcotest.(check bool) "n1 beta" true (Index.node_contains idx 1 "beta");
  Alcotest.(check bool) "n2 beta" false (Index.node_contains idx 2 "beta")

let test_vocabulary () =
  let t = small () in
  let idx = Index.build t in
  let vocab = Index.vocabulary idx in
  Alcotest.(check bool) "contains alpha" true (List.mem "alpha" vocab);
  Alcotest.(check int) "size agrees" (List.length vocab) (Index.vocabulary_size idx);
  Alcotest.(check bool) "postings positive" true (Index.total_postings idx > 0)

(* --- the one keyword index against a plain walk --- *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment

(* Reference tf·idf: re-tokenize every member node under the default
   options and count the lower-cased keyword.  Under the default options
   [Ranking.score], which reads the index, must equal it bit for bit. *)
let retokenizing_score (ctx : Context.t) ~keywords f =
  let idf k =
    let df = Index.node_count ctx.index k in
    if df = 0 then 0.0
    else begin
      let n = float_of_int (Doctree.size ctx.tree) in
      Float.log ((n +. 1.0) /. (float_of_int df +. 1.0))
    end
  in
  let tf k =
    let k = Tokenizer.normalize k in
    Int_sorted.fold
      (fun acc n ->
        let tokens =
          Tokenizer.tokenize
            (Doctree.label ctx.tree n ^ " " ^ Doctree.text ctx.tree n)
        in
        acc + List.length (List.filter (String.equal k) tokens))
      0 (Fragment.nodes f)
  in
  let raw =
    List.fold_left
      (fun acc k -> acc +. (float_of_int (tf k) *. idf k))
      0.0 keywords
  in
  raw /. (1.0 +. Float.log (float_of_int (Fragment.size f)))

(* keywords(n) is the token list of n's label and text, so each stored
   keyword's posting must list exactly the nodes whose tokens hold it,
   each with its token count, and [stats] must total those counts. *)
let index_matches_walk ~options tree =
  let idx = Index.build ~options tree in
  let nodes = Doctree.all_nodes tree in
  let tokens =
    Array.init (Doctree.size tree) (fun n ->
        Tokenizer.tokenize ~options
          (Doctree.label tree n ^ " " ^ Doctree.text tree n))
  in
  let count n k = List.length (List.filter (String.equal k) tokens.(n)) in
  let stats = Index.stats idx in
  Index.vocabulary idx
  = List.sort_uniq String.compare (List.concat (Array.to_list tokens))
  && Index.fold
       (fun k (p : Index.posting) ok ->
         let in_posting n =
           let i = Int_sorted.position n p.nodes in
           if i < 0 then count n k = 0 else count n k = p.tfs.(i)
         in
         let occurrences = List.fold_left (fun acc n -> acc + count n k) 0 nodes in
         ok
         && Array.length p.tfs = Int_sorted.cardinal p.nodes
         && List.for_all in_posting nodes
         && List.mem (k, Int_sorted.cardinal p.nodes, occurrences) stats)
       idx true

let scores_match_retokenizing tree =
  let ctx = Context.create tree in
  let queries =
    [ "optimization"; "the" ]
    :: List.map
         (fun q -> q.Xfrag_core.Query.keywords)
         (Xfrag_workload.Querygen.queries ~seed:(Doctree.size tree) ~count:3
            { keyword_count = 2; min_postings = 2; max_postings = 8 }
            ctx)
  in
  List.for_all
    (fun keywords ->
      Xfrag_core.Frag_set.for_all
        (fun f ->
          Int64.equal
            (Int64.bits_of_float
               (Xfrag_baselines.Ranking.score ctx ~keywords f))
            (Int64.bits_of_float (retokenizing_score ctx ~keywords f)))
        (Xfrag_core.Eval.answers ctx
           (Xfrag_core.Query.make
              ~filter:(Xfrag_core.Filter.Size_at_most 3)
              keywords)))
    queries

(* Docgen text is all "termNNNN"; the planted words give the stemmer
   ("agreed" stems to "agre", which stems again to "agr", so stored keys
   are never re-probed), the stopword list and the length floor
   something to act on. *)
let index_reference_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"one index = reference walk" ~count:20
       QCheck2.Gen.(1 -- 10_000)
       (fun seed ->
         let tree =
           Xfrag_workload.Docgen.with_planted_keywords
             { Xfrag_workload.Docgen.default with seed; sections = 2 }
             ~plant:
               [
                 ("optimization", 3); ("Optimizations", 2); ("agreed", 2);
                 ("the", 3); ("of", 2); ("a", 2); ("ab", 2);
               ]
         in
         List.for_all
           (fun options -> index_matches_walk ~options tree)
           [
             Tokenizer.default_options;
             { Tokenizer.default_options with stem = true };
             {
               Tokenizer.default_options with
               stopwords = true;
               min_length = 3;
             };
           ]
         && scores_match_retokenizing tree))

(* --- stats --- *)

let test_stats () =
  let s = Stats.compute (small ()) in
  Alcotest.(check int) "nodes" 6 s.Stats.node_count;
  Alcotest.(check int) "leaves" 3 s.Stats.leaf_count;
  Alcotest.(check int) "max depth" 2 s.Stats.max_depth;
  Alcotest.(check int) "max fanout" 2 s.Stats.max_fanout;
  Alcotest.(check bool) "histogram covers all labels" true
    (List.length s.Stats.label_histogram = 6)

let () =
  Alcotest.run "doctree"
    [
      ( "structure",
        [
          Alcotest.test_case "size and root" `Quick test_size_and_root;
          Alcotest.test_case "parent" `Quick test_parent;
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "children order" `Quick test_children_order;
          Alcotest.test_case "siblings" `Quick test_siblings;
          Alcotest.test_case "is_leaf" `Quick test_is_leaf;
          Alcotest.test_case "ancestor" `Quick test_ancestor;
          Alcotest.test_case "subtree" `Quick test_subtree;
          Alcotest.test_case "leaf intervals" `Quick test_leaf_intervals;
          Alcotest.test_case "path to ancestor" `Quick test_path_to_ancestor;
          Alcotest.test_case "of_specs rejects bad input" `Quick test_of_specs_rejects_bad_input;
          Alcotest.test_case "of_xml" `Quick test_of_xml;
          Alcotest.test_case "validate" `Quick test_validate_ok;
          Alcotest.test_case "deep tree (no stack overflow)" `Slow test_deep_tree_no_stack_overflow;
        ] );
      ("generated docs", [ of_xml_generated_prop ]);
      ( "codec",
        [
          Alcotest.test_case "round trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "escaping" `Quick test_codec_escaping;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "file round trip" `Quick test_codec_file_roundtrip;
          codec_roundtrip_prop;
        ] );
      ( "lca",
        [
          Alcotest.test_case "small tree" `Quick test_lca_small;
          Alcotest.test_case "distance and path" `Quick test_lca_distance_path;
          lca_matches_naive_prop;
        ] );
      ( "tokenizer",
        [
          Alcotest.test_case "basic" `Quick test_tokenize_basic;
          Alcotest.test_case "empty/punct" `Quick test_tokenize_empty_and_punct;
          Alcotest.test_case "keyword_set" `Quick test_keyword_set_dedups;
          Alcotest.test_case "min_length" `Quick test_min_length_option;
          Alcotest.test_case "stopwords" `Quick test_stopwords_option;
          Alcotest.test_case "contains_keyword" `Quick test_contains_keyword;
        ] );
      ( "stemmer",
        [
          Alcotest.test_case "standard examples" `Quick test_stemmer_standard_examples;
          Alcotest.test_case "stemmed tokenization" `Quick test_stemmed_tokenization;
          Alcotest.test_case "stemmed index end to end" `Quick test_stemmed_index_end_to_end;
          stemmer_shortens_prop;
          stemmer_total_prop;
        ] );
      ( "index",
        [
          Alcotest.test_case "lookup" `Quick test_index_lookup;
          Alcotest.test_case "labels indexed" `Quick test_index_includes_labels;
          Alcotest.test_case "case insensitive" `Quick test_index_case_insensitive;
          Alcotest.test_case "node_contains" `Quick test_node_contains;
          Alcotest.test_case "vocabulary" `Quick test_vocabulary;
          index_reference_prop;
        ] );
      ("stats", [ Alcotest.test_case "compute" `Quick test_stats ]);
    ]
