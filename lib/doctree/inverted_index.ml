module Int_sorted = Xfrag_util.Int_sorted

type posting = { nodes : Int_sorted.t; tfs : int array }

type t = {
  tree : Doctree.t;
  options : Tokenizer.options;
  postings : (string, posting) Hashtbl.t;
}

let build ?(options = Tokenizer.default_options) tree =
  (* Nodes are visited in increasing id order, so each keyword's list
     holds its current node's (node, tf) entry at its head, and comes
     out sorted once reversed. *)
  let acc : (string, (int * int) list ref) Hashtbl.t = Hashtbl.create 1024 in
  Doctree.iter
    (fun n ->
      (* Per the paper, tag names are searchable keywords too: index the
         label alongside the node text. *)
      Tokenizer.tokenize ~options
        (Doctree.label tree n ^ " " ^ Doctree.text tree n)
      |> List.iter (fun k ->
             match Hashtbl.find_opt acc k with
             | Some ({ contents = (m, tf) :: rest } as l) when m = n ->
                 l := (n, tf + 1) :: rest
             | Some l -> l := (n, 1) :: !l
             | None -> Hashtbl.add acc k (ref [ (n, 1) ])))
    tree;
  let postings = Hashtbl.create (Hashtbl.length acc) in
  Hashtbl.iter
    (fun k l ->
      let entries = Array.of_list (List.rev !l) in
      Hashtbl.replace postings k
        { nodes = Array.map fst entries; tfs = Array.map snd entries })
    acc;
  { tree; options; postings }

let tree t = t.tree

let options t = t.options

let no_posting = { nodes = Int_sorted.empty; tfs = [||] }

let posting t keyword =
  match
    Hashtbl.find_opt t.postings
      (Tokenizer.normalize_probe ~options:t.options keyword)
  with
  | Some p -> p
  | None -> no_posting

let lookup t keyword = (posting t keyword).nodes

let node_count t keyword = Int_sorted.cardinal (lookup t keyword)

let node_contains t n keyword = Int_sorted.mem n (lookup t keyword)

let term_frequency t keyword nodes =
  let p = posting t keyword in
  Int_sorted.fold
    (fun acc n ->
      let i = Int_sorted.position n p.nodes in
      if i < 0 then acc else acc + p.tfs.(i))
    0 nodes

let idf ~nodes ~df =
  if df = 0 then 0.0
  else Float.log ((float_of_int nodes +. 1.0) /. (float_of_int df +. 1.0))

let fold f t init = Hashtbl.fold f t.postings init

let stats t =
  fold
    (fun k p acc ->
      (k, Int_sorted.cardinal p.nodes, Array.fold_left ( + ) 0 p.tfs) :: acc)
    t []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let vocabulary t =
  fold (fun k _ acc -> k :: acc) t [] |> List.sort String.compare

let vocabulary_size t = Hashtbl.length t.postings

let total_postings t =
  fold (fun _ p acc -> acc + Int_sorted.cardinal p.nodes) t 0
