(** IR-style scoring of answer fragments (tf·idf), for contrast with the
    paper's database-style filtering (§6 positions the two approaches as
    complements). *)

type scored = { fragment : Xfrag_core.Fragment.t; score : float }

val idf : Xfrag_core.Context.t -> string -> float
(** {!Xfrag_doctree.Inverted_index.idf}: log((N+1) / (df+1)) over nodes. *)

val score : Xfrag_core.Context.t -> keywords:string list -> Xfrag_core.Fragment.t -> float
(** Σ_k tf(f, k) · idf(k) / (1 + log size(f)) — the term frequencies of
    the fragment's member nodes, read from the document's index, with a
    mild length normalization. *)

val rank :
  Xfrag_core.Context.t -> keywords:string list -> Xfrag_core.Frag_set.t -> scored list
(** Fragments sorted by descending score (ties broken by fragment
    order, smallest first). *)

val top_k :
  Xfrag_core.Context.t -> keywords:string list -> k:int -> Xfrag_core.Frag_set.t -> scored list
