(** Keyword → node inverted index over a document tree.

    This implements the selection [σ_{keyword = k}(nodes(D))] of the
    paper (Definition 3 and §2.3): the posting list of [k] is exactly the
    set of single-node fragments whose [keywords(n)] contains [k].

    The paper performs "no preprocessing of data" beyond this (§6); the
    index is the standard keyword-lookup structure every strategy shares.
    It is the one copy of [keywords(n)]: one hash table from normalized
    keyword to its {!posting}, read by selection, containment, the
    tf·idf scorer and the corpus index alike. *)

type t

type posting = private {
  nodes : Xfrag_util.Int_sorted.t;  (** ids of the nodes holding the keyword *)
  tfs : int array;  (** [tfs.(i)]: occurrences in [nodes.(i)]'s label, text *)
}

val build : ?options:Tokenizer.options -> Doctree.t -> t

val tree : t -> Doctree.t

val options : t -> Tokenizer.options
(** The tokenizer options the index was built with. *)

val lookup : t -> string -> Xfrag_util.Int_sorted.t
(** Nodes whose keywords contain the probe keyword; empty set if the
    keyword does not occur.  The probe is normalized by
    {!Tokenizer.normalize_probe} under the index's options, so stemming
    (when enabled) applies to queries symmetrically.  To test many nodes
    against one keyword, look it up once and use [Int_sorted.mem]. *)

val node_count : t -> string -> int
(** Posting-list length, i.e. document frequency in nodes. *)

val node_contains : t -> Doctree.node -> string -> bool
(** Does this node's label or text contain the keyword?  A binary search
    in the posting, O(log df). *)

val term_frequency : t -> string -> Xfrag_util.Int_sorted.t -> int
(** Σ of the given nodes' term frequencies for the probe keyword
    (normalized as in {!lookup}). *)

val idf : nodes:int -> df:int -> float
(** log((nodes + 1) / (df + 1)), 0 when [df = 0]: the one idf of the
    scorer and of the corpus score bounds.  Takes counts, not keywords. *)

val fold : (string -> posting -> 'a -> 'a) -> t -> 'a -> 'a
(** Every keyword as stored (already normalized) with its posting. *)

val stats : t -> (string * int * int) list
(** [(keyword, node_count, occurrences)] for every indexed keyword as
    stored, sorted by keyword; [occurrences] sums the posting's term
    frequencies.  The walk a corpus-wide index builds from. *)

val vocabulary : t -> string list
(** All indexed keywords, sorted. *)

val vocabulary_size : t -> int

val total_postings : t -> int
(** Sum of all posting-list lengths. *)
