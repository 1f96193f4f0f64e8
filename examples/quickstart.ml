(* Quickstart: parse an XML document, run a keyword query with a size
   filter, print the answer fragments.

     dune exec examples/quickstart.exe *)

module Context = Xfrag_core.Context
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set
module Filter = Xfrag_core.Filter
module Query = Xfrag_core.Query
module Eval = Xfrag_core.Eval

let document =
  {|<article>
  <section>
    <title>Gardening in small spaces</title>
    <par>Container gardening brings tomato plants to any balcony.</par>
    <par>A tomato plant needs six hours of sunlight.</par>
  </section>
  <section>
    <title>Watering schedules</title>
    <par>Most balcony containers need daily watering in summer.</par>
    <par>Tomato roots rot in standing water.</par>
  </section>
</article>|}

let () =
  (* 1. Build a query context: tree + LCA structure + keyword index. *)
  let ctx = Context.of_xml_string document in
  Format.printf "document: %d element nodes@.@." (Context.size ctx);

  (* 2. A keyword query with an anti-monotonic filter: fragments of at
     most four nodes containing both 'tomato' and 'balcony'. *)
  let query = Query.make ~filter:(Filter.Size_at_most 4) [ "tomato"; "balcony" ] in
  Format.printf "query: %a@.@." Query.pp query;

  (* 3. Evaluate.  The default Auto strategy pushes the filter below the
     joins (Theorem 3) because it is anti-monotonic. *)
  let outcome = Eval.exec ctx (Xfrag_core.Exec.Request.of_query query) in
  Format.printf "%d answers via %s:@."
    (Frag_set.cardinal outcome.Eval.answers)
    (Eval.strategy_name outcome.Eval.strategy_used);
  List.iter
    (fun f ->
      Format.printf "@.%a@." (Fragment.pp_labeled ctx) f;
      Format.printf "%s@." (Xfrag_xml.Xml_printer.node_to_string (Fragment.to_xml ctx f)))
    (Frag_set.elements outcome.Eval.answers);

  (* 4. The operation counters show what the evaluation cost. *)
  Format.printf "@.cost: %a@." Xfrag_core.Op_stats.pp outcome.Eval.stats
