module Doctree = Xfrag_doctree.Doctree
module Inverted_index = Xfrag_doctree.Inverted_index
module Fragment = Xfrag_core.Fragment
module Frag_set = Xfrag_core.Frag_set

type scored = { fragment : Fragment.t; score : float }

let idf (ctx : Xfrag_core.Context.t) keyword =
  Inverted_index.idf ~nodes:(Doctree.size ctx.tree)
    ~df:(Inverted_index.node_count ctx.index keyword)

let score (ctx : Xfrag_core.Context.t) ~keywords f =
  let raw =
    List.fold_left
      (fun acc k ->
        let tf = Inverted_index.term_frequency ctx.index k (Fragment.nodes f) in
        acc +. (float_of_int tf *. idf ctx k))
      0.0 keywords
  in
  raw /. (1.0 +. Float.log (float_of_int (Fragment.size f)))

let rank ctx ~keywords set =
  Frag_set.elements set
  |> List.map (fun fragment -> { fragment; score = score ctx ~keywords fragment })
  |> List.stable_sort (fun a b -> compare b.score a.score)

let top_k ctx ~keywords ~k set =
  rank ctx ~keywords set |> List.filteri (fun i _ -> i < k)
