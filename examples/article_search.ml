(* Searching a generated document-centric article collection: the
   workload the paper's introduction motivates.  Plants two keywords
   into a synthetic article, then contrasts the algebra's answers with
   the SLCA / smallest-subtree baselines and ranks them.

     dune exec examples/article_search.exe *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Docgen = Xfrag_workload.Docgen
module Ranking = Xfrag_baselines.Ranking

let () =
  (* A mid-sized article with two planted topic keywords whose
     occurrences are scattered across paragraphs. *)
  let tree =
    Docgen.with_planted_keywords
      { Docgen.default with seed = 2026; sections = 6 }
      ~plant:[ ("croissant", 5); ("lamination", 4) ]
  in
  let ctx = Context.create tree in
  Format.printf "article: %d nodes, %d keywords indexed@.@." (Context.size ctx)
    (Xfrag_doctree.Inverted_index.vocabulary_size ctx.Context.index);

  let keywords = [ "croissant"; "lamination" ] in

  (* Conventional semantics first. *)
  let slca = Xfrag_baselines.Slca.answer ctx keywords in
  Format.printf "SLCA answers %d node(s): %s@." (List.length slca)
    (String.concat ", " (List.map (Printf.sprintf "n%d") slca));
  let smallest = Xfrag_baselines.Smallest_subtree.answer ctx keywords in
  Format.printf "smallest-subtree answers (%d):@." (Frag_set.cardinal smallest);
  Frag_set.iter
    (fun f -> Format.printf "  %a@." (Fragment.pp_labeled ctx) f)
    smallest;

  (* The algebra, with height and size limits keeping answers readable. *)
  let filter = Filter.And (Filter.Size_at_most 5, Filter.Height_at_most 2) in
  let q = Query.make ~filter keywords in
  let outcome = Eval.exec ctx (Xfrag_core.Exec.Request.of_query q) in
  Format.printf "@.algebraic answers (%d, strategy %s, filter %s):@."
    (Frag_set.cardinal outcome.Eval.answers)
    (Eval.strategy_name outcome.Eval.strategy_used)
    (Filter.to_string filter);

  (* Rank them IR-style for presentation (§6: filtering and ranking are
     complements). *)
  let ranked = Ranking.top_k ctx ~keywords ~k:5 outcome.Eval.answers in
  List.iteri
    (fun i s ->
      Format.printf "  #%d (score %.2f) %a@." (i + 1) s.Ranking.score
        (Fragment.pp_labeled ctx) s.Ranking.fragment)
    ranked;

  (* How many algebraic answers are invisible to the baselines? *)
  let missed =
    Frag_set.filter (fun f -> not (Frag_set.mem f smallest)) outcome.Eval.answers
  in
  Format.printf
    "@.%d of %d algebraic answers are not produced by smallest-subtree \
     semantics.@."
    (Frag_set.cardinal missed)
    (Frag_set.cardinal outcome.Eval.answers);
  Format.printf "evaluation cost: %a@." Xfrag_core.Op_stats.pp outcome.Eval.stats
