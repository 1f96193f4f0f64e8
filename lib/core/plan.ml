module Trace = Xfrag_obs.Trace

type rounds = Until_stable | Theorem1 | Delta

type t =
  | Scan_keyword of string
  | Select of Filter.t * t
  | Join of { prune : Filter.t; left : t; right : t }
  | Power_join of t list
  | Fixed_point of { prune : Filter.t; rounds : rounds; seed : t }
  | Strict_leaf of t

let initial (q : Query.t) =
  match q.keywords with
  | [] -> invalid_arg "Plan.initial: query has no keywords"
  | ks -> Select (q.filter, Power_join (List.map (fun k -> Scan_keyword k) ks))

let inputs = function
  | Scan_keyword _ -> []
  | Select (_, x) | Fixed_point { seed = x; _ } | Strict_leaf x -> [ x ]
  | Join { left; right; _ } -> [ left; right ]
  | Power_join xs -> xs

let map_inputs f = function
  | Scan_keyword _ as p -> p
  | Select (p, x) -> Select (p, f x)
  | Join j -> Join { j with left = f j.left; right = f j.right }
  | Power_join xs -> Power_join (List.map f xs)
  | Fixed_point fp -> Fixed_point { fp with seed = f fp.seed }
  | Strict_leaf x -> Strict_leaf (f x)

let rec keywords = function
  | Scan_keyword k -> [ k ]
  | p -> List.concat_map keywords (inputs p)

let strict_leaf (ctx : Context.t) keywords answers =
  let postings =
    List.map (Xfrag_doctree.Inverted_index.lookup ctx.index) keywords
  in
  Frag_set.filter
    (fun f ->
      let leaves = Fragment.leaves ctx f in
      List.for_all
        (fun posting ->
          List.exists (fun n -> Xfrag_util.Int_sorted.mem n posting) leaves)
        postings)
    answers

let run ?stats ?cache ?(trace = Trace.disabled) ?(deadline = Deadline.none)
    ?(scans = []) ?(reduced = []) ?(observe = fun _ _ apply -> apply ()) ctx
    plan =
  let apply plan inputs =
    match (plan, inputs) with
    | Scan_keyword k, _ -> (
        match List.assoc_opt k scans with
        | Some set -> set
        | None -> Selection.keyword ~trace ctx k)
    | Select (p, _), [ set ] -> Selection.select ?stats ~trace ctx p set
    | Join { prune; _ }, [ a; b ] ->
        Join.pairwise_filtered ?stats ?cache ~trace ~deadline ctx
          ~keep:(Filter.evaluate ctx prune) a b
    | Power_join _, sets ->
        Powerset.many_literal ?stats ?cache ~trace ~deadline ctx sets
    | Fixed_point { prune; rounds; seed }, [ set ] -> (
        let keep =
          if prune = Filter.True then None else Some (Filter.evaluate ctx prune)
        in
        match (rounds, seed) with
        | Until_stable, _ ->
            Fixed_point.naive ?stats ?cache ~trace ~deadline ?keep ctx set
        | Delta, _ ->
            Fixed_point.semi_naive ?stats ?cache ~trace ~deadline ?keep ctx set
        | Theorem1, Scan_keyword k ->
            (* Keyword scans are single-node fragments, where Theorem 1's
               round count needs no convergence check. *)
            let reduced =
              if prune = Filter.True then List.assoc_opt k reduced else None
            in
            Fixed_point.with_reduction ?stats ?cache ~trace ~deadline ?keep
              ?reduced ~checked:false ctx set
        | Theorem1, _ ->
            Fixed_point.with_reduction ?stats ?cache ~trace ~deadline ?keep ctx
              set)
    | Strict_leaf x, [ set ] ->
        Deadline.check deadline;
        Trace.with_span trace "strict-leaf" (fun () ->
            strict_leaf ctx (keywords x) set)
    | (Select _ | Join _ | Fixed_point _ | Strict_leaf _), _ ->
        invalid_arg "Plan.run: operator applied to the wrong number of inputs"
  in
  let rec go plan =
    let args = List.map go (inputs plan) in
    observe plan args (fun () -> apply plan args)
  in
  go plan

let rec operator_count p =
  List.fold_left (fun n x -> n + operator_count x) 1 (inputs p)

let filter_str p = Format.asprintf "%a" Filter.pp p

let prune_suffix p =
  if p = Filter.True then "" else Printf.sprintf " [prune %s]" (filter_str p)

let label = function
  | Scan_keyword k -> "scan " ^ k
  | Select (p, _) -> "\xCF\x83 " ^ filter_str p
  | Join { prune; _ } -> "\xE2\x8B\x88" ^ prune_suffix prune
  | Power_join _ -> "\xE2\x8B\x88*"
  | Fixed_point { prune; rounds; _ } ->
      "fixed-point"
      ^ (match rounds with
        | Until_stable -> ""
        | Theorem1 -> " [rounds=|\xE2\x8A\x96|]"
        | Delta -> " [delta]")
      ^ prune_suffix prune
  | Strict_leaf _ -> "strict-leaf"

let rec pp ppf = function
  | Scan_keyword k -> Format.fprintf ppf "F(%s)" k
  | Select (p, x) -> Format.fprintf ppf "\xCF\x83_{%a}(%a)" Filter.pp p pp x
  | Join { prune; left; right } ->
      Format.fprintf ppf "(%a \xE2\x8B\x88%s %a)" pp left
        (if prune = Filter.True then "" else "[" ^ filter_str prune ^ "]")
        pp right
  | Power_join [ x ] -> Format.fprintf ppf "\xE2\x8B\x88*(%a)" pp x
  | Power_join xs ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " \xE2\x8B\x88* ")
           pp)
        xs
  | Fixed_point { prune; rounds; seed } ->
      Format.fprintf ppf "%a\xE2\x81\xBA%s%s" pp seed
        (match rounds with
        | Until_stable -> ""
        | Theorem1 -> "\xCA\xB3"
        | Delta -> "\xE1\xB5\x9F")
        (if prune = Filter.True then "" else "[" ^ filter_str prune ^ "]")
  | Strict_leaf x -> Format.fprintf ppf "strict-leaf(%a)" pp x

let pp_tree ppf plan =
  let rec go indent node =
    Format.fprintf ppf "%s%s@," (String.make indent ' ') (label node);
    List.iter (go (indent + 2)) (inputs node)
  in
  Format.fprintf ppf "@[<v>";
  go 0 plan;
  Format.fprintf ppf "@]"
