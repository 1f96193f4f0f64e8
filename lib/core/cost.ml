module Inverted_index = Xfrag_doctree.Inverted_index

type estimate = { cost : float; cardinality : float }

let set_growth_cap = 1.0e6

let cap x = Float.min x set_growth_cap

let rec selectivity = function
  | Filter.True -> 1.0
  | Filter.Size_at_most b -> Float.min 1.0 (0.1 *. float_of_int b)
  | Filter.Size_at_least _ -> 0.5
  | Filter.Height_at_most h -> Float.min 1.0 (0.2 *. float_of_int (h + 1))
  | Filter.Span_at_most w -> Float.min 1.0 (0.05 *. float_of_int (w + 1))
  | Filter.Diameter_at_most d -> Float.min 1.0 (0.15 *. float_of_int (d + 1))
  | Filter.Width_at_most w -> Float.min 1.0 (0.08 *. float_of_int (w + 1))
  | Filter.Depth_under _ -> 0.8
  | Filter.Labels_among ls -> Float.min 1.0 (0.1 *. float_of_int (List.length ls))
  | Filter.Contains_keyword _ -> 0.3
  | Filter.Root_label_is _ -> 0.2
  | Filter.Equal_depth _ -> 0.1
  | Filter.Not p -> 1.0 -. selectivity p
  | Filter.And (p, q) -> selectivity p *. selectivity q
  | Filter.Or (p, q) ->
      let a = selectivity p and b = selectivity q in
      a +. b -. (a *. b)

let rec estimate (ctx : Context.t) plan =
  match plan with
  | Plan.Scan_keyword k ->
      let n = float_of_int (Inverted_index.node_count ctx.index k) in
      { cost = n; cardinality = n }
  | Plan.Select (p, x) ->
      let e = estimate ctx x in
      { cost = e.cost +. e.cardinality; cardinality = e.cardinality *. selectivity p }
  | Plan.Strict_leaf x -> estimate ctx (Plan.Select (Filter.True, x))
  | Plan.Join { prune; left; right } ->
      let ea = estimate ctx left and eb = estimate ctx right in
      let produced = ea.cardinality *. eb.cardinality in
      {
        cost = ea.cost +. eb.cost +. produced;
        cardinality = cap (produced *. selectivity prune);
      }
  | Plan.Power_join xs ->
      (* Literal powerset join: exponential in the operand sizes. *)
      let es = List.map (estimate ctx) xs in
      let subsets x = Float.min set_growth_cap (Float.pow 2.0 (Float.min x 40.0)) in
      let produced =
        cap (List.fold_left (fun acc e -> acc *. subsets e.cardinality) 1.0 es)
      in
      {
        cost = List.fold_left (fun acc e -> acc +. e.cost) produced es;
        cardinality = produced;
      }
  | Plan.Fixed_point { prune; rounds; seed } ->
      let e = estimate ctx seed in
      let s = selectivity prune in
      let n = e.cardinality *. s in
      let out = cap (n *. n *. s) in
      let joins =
        match rounds with
        | Plan.Until_stable -> n *. out *. n /. 4.0
        | Plan.Theorem1 ->
            (* Reduction typically halves the round count, plus the
               |F|² ⊖ probe. *)
            (n *. n) +. (Float.max 1.0 (n /. 2.0) *. out *. n /. 4.0)
        | Plan.Delta -> out *. n (* each discovery meets the seed once *)
      in
      { cost = e.cost +. joins; cardinality = out }

let cost ctx plan = (estimate ctx plan).cost
