(** Corpus-wide inverted index: keyword → document posting lists with
    score upper bounds.

    The per-document {!Xfrag_doctree.Inverted_index} answers "which
    {e nodes} of this document contain [k]"; this module lifts that one
    level to "which {e documents} of the corpus contain [k]", which is
    what turns corpus query cost from O(documents) into O(matching
    documents).  Each posting [(doc, term_count, max_term_weight)]
    carries the document's total occurrence count of the keyword and a
    precomputed upper bound on the tf·idf weight any single fragment of
    that document can earn from it:

    {v max_term_weight(k, d) = occurrences(d, k) x idf_d(k)
       idf_d(k)             = log ((size(d) + 1) / (df_nodes(d, k) + 1)) v}

    with [idf_d] the scorer's own {!Xfrag_doctree.Inverted_index.idf}.
    This dominates [Ranking.score]'s per-keyword contribution because a
    fragment's term frequency never exceeds the document's total
    occurrence count and the fragment-length penalty divides by at
    least 1.  Summing [max_term_weight] over the query keywords
    therefore bounds the score of {e every} fragment of the document —
    the WAND-style invariant the corpus engine's top-k early
    termination relies on.  The bound is conservative by construction,
    never exact: it may admit documents that score lower, but it can
    never exclude a document holding a true top-k answer.

    Keywords are stored exactly as the per-document index normalized
    them (same {!Xfrag_doctree.Tokenizer} options, including stemming),
    and probes are normalized by the same [Tokenizer.normalize_probe]
    under those options, so index-time and query-time normalization
    cannot drift.

    The structure is functional (persistent maps) to match
    [Corpus.add]'s functional contract.  It lives in memory only: a
    corpus rebuilds it from its documents. *)

type posting = {
  term_count : int;  (** total occurrences of the keyword in the doc *)
  max_weight : float;
      (** upper bound on any fragment's tf·idf contribution for this
          keyword (see the module preamble) *)
}

type t

val empty : t

val add_document : t -> name:string -> Xfrag_doctree.Inverted_index.t -> t
(** Fold one document's per-node index into the corpus index.  Passes
    the [index.build] failpoint (keyed by document name) first, so the
    build path is fault-injectable; callers are expected to degrade to
    an unindexed (full-scan) corpus when it raises.  The first document
    fixes the tokenizer options the whole index probes with.
    @raise Invalid_argument on a duplicate document name. *)

val remove_document : t -> string -> t
(** Drop a document from every posting list (no-op for unknown names).
    Passes the [index.retract] failpoint (keyed by document name) first,
    mirroring [add_document]'s [index.build] site; callers are expected
    to fall back to a full rebuild — and from there to an unindexed
    corpus — when it raises.  The hook incremental corpus maintenance
    builds on.  O(corpus vocabulary): it walks every keyword, but
    re-tokenizes nothing. *)

val options : t -> Xfrag_doctree.Tokenizer.options option
(** Probe-normalization options, fixed by the first added document;
    [None] while the index is empty. *)

val doc_count : t -> int

val vocabulary_size : t -> int

val total_postings : t -> int
(** Total posting entries, i.e. Σ over documents of distinct keywords. *)

val document_frequency : t -> string -> int
(** Number of documents whose text contains the keyword — an O(log n)
    posting-list lookup. *)

val postings : t -> string -> (string * posting) list
(** The keyword's posting list, sorted by document name; [[]] if the
    keyword occurs nowhere. *)

val route : t -> keywords:string list -> string list
(** Documents containing {e all} keywords (conjunctive intersection of
    posting lists), sorted by name.  A keyword occurring nowhere makes
    the result empty.  [route ~keywords:[]] is every document (no
    constraint). *)

val score_bound : t -> doc:string -> keywords:string list -> float
(** Σ over [keywords] of the document's [max_weight] (0 for keywords
    the document lacks) — an upper bound on [Ranking.score] for every
    fragment of the document. *)

val equal : t -> t -> bool
(** Same tokenizer options, same documents with the same node and
    keyword counts, and the same postings, [max_weight] compared bit for
    bit.  An index maintained incrementally is [equal] to one built from
    scratch over the same documents, in any order. *)
