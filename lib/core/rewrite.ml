open Plan

let rec power_to_fixpoint p =
  match map_inputs power_to_fixpoint p with
  | Power_join (x :: xs) ->
      let fp seed = Fixed_point { prune = Filter.True; rounds = Until_stable; seed } in
      List.fold_left
        (fun left x -> Join { prune = Filter.True; left; right = fp x })
        (fp x) xs
  | p -> p

let rec with_rounds rounds p =
  match map_inputs (with_rounds rounds) p with
  | Fixed_point fp -> Fixed_point { fp with rounds }
  | p -> p

let use_reduction = with_rounds Theorem1

let use_delta = with_rounds Delta

let conjoin a b = Filter.conjoin (Filter.conjuncts a @ Filter.conjuncts b)

(* Make every result of [plan] satisfy the anti-monotonic [am]: prune at
   every join and inside every fixed point (which also filters its
   seed); only a bare scan or strict-leaf filter needs a selection. *)
let rec push am plan =
  match plan with
  | Join j ->
      Join { prune = conjoin j.prune am; left = push am j.left; right = push am j.right }
  | Fixed_point fp -> Fixed_point { fp with prune = conjoin fp.prune am }
  | Power_join (_ :: _) -> push am (power_to_fixpoint plan)
  | Select (f, x) -> Select (f, push am x)
  | Scan_keyword _ | Strict_leaf _ | Power_join [] -> Select (am, plan)

let rec push_selection p =
  match map_inputs push_selection p with
  | Select (f, x) ->
      let am, residual = Filter.decompose f in
      if am = Filter.True then Select (f, x) else Select (residual, push am x)
  | p -> p
