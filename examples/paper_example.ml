(* The paper's running example (§4) end to end: the Figure 1 document,
   the query {XQuery, optimization} with filter size ≤ 3, Table 1
   reproduced row by row, and all four evaluation strategies compared.

     dune exec examples/paper_example.exe *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Join = Xfrag_core.Join
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval
module Paper = Xfrag_workload.Paper_doc

let rule () = Format.printf "%s@." (String.make 72 '-')

let () =
  let ctx = Paper.figure1_context () in
  Format.printf "Figure 1 document: %d nodes (n0..n81)@."
    (Xfrag_doctree.Doctree.size ctx.Context.tree);
  let q = Query.make ~filter:(Filter.Size_at_most 3) Paper.query_keywords in
  Format.printf "query: %a@." Query.pp q;
  rule ();

  (* Keyword selections (§2.3). *)
  List.iter
    (fun k ->
      Format.printf "F(%s) = %a@." k Frag_set.pp (Xfrag_core.Selection.keyword ctx k))
    q.Query.keywords;
  rule ();

  (* Table 1: each candidate fragment set and its join. *)
  Format.printf "Table 1 (candidate fragment sets and their joins):@.";
  Format.printf "%-4s %-28s %-40s %s@." "row" "inputs" "output" "marks";
  List.iteri
    (fun i (inputs, _) ->
      let row = i + 1 in
      let frags = List.map (fun ns -> Fragment.of_nodes ctx ns) inputs in
      let out = Join.fragment_many ctx frags in
      let irrelevant = not (Filter.evaluate ctx q.Query.filter out) in
      let duplicate = row > 7 in
      Format.printf "%-4d %-28s %-40s %s%s@." row
        (String.concat " \xE2\x8B\x88 "
           (List.map (fun f -> Format.asprintf "f%d" (Fragment.root f)) frags))
        (Format.asprintf "%a" Fragment.pp out)
        (if irrelevant then "irrelevant " else "")
        (if duplicate then "duplicate" else ""))
    Paper.table1_rows;
  rule ();

  (* The final answer, via every strategy. *)
  Format.printf "final answer under each strategy:@.";
  List.iter
    (fun strategy ->
      let outcome =
        Eval.exec ctx Xfrag_core.Exec.Request.(of_query q |> with_strategy strategy)
      in
      Format.printf "  %-14s -> %d fragments, %a@."
        (Eval.strategy_name strategy)
        (Frag_set.cardinal outcome.Eval.answers)
        Xfrag_core.Op_stats.pp outcome.Eval.stats)
    Eval.all_strategies;
  rule ();

  let answers = Eval.answers ctx q in
  Format.printf "answer fragments:@.";
  List.iter
    (fun f -> Format.printf "  %a@." (Fragment.pp_labeled ctx) f)
    (Frag_set.elements answers);
  rule ();

  (* Figure 8(b): the fragment of interest, as XML. *)
  let target = Fragment.of_nodes ctx Paper.fragment_of_interest in
  Format.printf "the fragment of interest (Figure 8b), as XML:@.%s@."
    (Xfrag_xml.Xml_printer.node_to_string (Fragment.to_xml ctx target));
  rule ();

  (* What the baselines would have answered (§1's complaint). *)
  Format.printf "smallest-subtree semantics (prior work) answers:@.";
  Frag_set.iter
    (fun f -> Format.printf "  %a@." (Fragment.pp_labeled ctx) f)
    (Xfrag_baselines.Smallest_subtree.answer ctx Paper.query_keywords);
  Format.printf "SLCA nodes: %s@."
    (String.concat ", "
       (List.map (Printf.sprintf "n%d")
          (Xfrag_baselines.Slca.answer ctx Paper.query_keywords)));
  Format.printf "ELCA nodes: %s@."
    (String.concat ", "
       (List.map (Printf.sprintf "n%d")
          (Xfrag_baselines.Elca.answer ctx Paper.query_keywords)));
  Format.printf
    "@.note: none of them produce \xE2\x9F\xA8n16, n17, n18\xE2\x9F\xA9 \
     \xE2\x80\x94 the paper's effectiveness argument.@."
