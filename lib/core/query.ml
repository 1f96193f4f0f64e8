module Tokenizer = Xfrag_doctree.Tokenizer
module Inverted_index = Xfrag_doctree.Inverted_index

type t = { keywords : string list; filter : Filter.t }

let make ?(filter = Filter.True) keywords =
  let keywords =
    keywords |> List.map Tokenizer.normalize
    |> List.filter (fun k -> k <> "")
    |> List.sort_uniq String.compare
  in
  if keywords = [] then invalid_arg "Query.make: at least one keyword is required";
  { keywords; filter }

let keyword_in_nodes ctx nodes k =
  let posting = Inverted_index.lookup ctx.Context.index k in
  List.exists (fun n -> Xfrag_util.Int_sorted.mem n posting) nodes

let matches ctx q f =
  List.for_all
    (fun k -> keyword_in_nodes ctx (Xfrag_util.Int_sorted.to_list (Fragment.nodes f)) k)
    q.keywords
  && Filter.evaluate ctx q.filter f

let matches_strict ctx q f =
  let leaves = Fragment.leaves ctx f in
  List.for_all (fun k -> keyword_in_nodes ctx leaves k) q.keywords
  && Filter.evaluate ctx q.filter f

let pp ppf q =
  Format.fprintf ppf "Q[%a]{%s}" Filter.pp q.filter (String.concat ", " q.keywords)
