(** Text-to-keyword tokenization.

    The paper assumes a function [keywords(n)] returning the
    representative keywords of a node.  We realize it the way IR systems
    do: lower-case, split on non-alphanumeric characters, drop very short
    tokens and (optionally) stopwords. *)

type options = {
  min_length : int;  (** drop tokens shorter than this (default 1) *)
  stopwords : bool;  (** drop common English stopwords (default false) *)
  stem : bool;  (** apply the Porter stemmer to every token (default false) *)
}

val default_options : options

val tokenize : ?options:options -> string -> string list
(** Tokens in occurrence order, duplicates preserved. *)

val normalize_probe : ?options:options -> string -> string
(** A query keyword as an index built with [options] stores it: its one
    token if it has exactly one, else {!normalize}d.  Not idempotent
    under stemming, so never apply it to stored keys. *)

val keyword_set : ?options:options -> string -> string list
(** Sorted, de-duplicated tokens. *)

val contains_keyword : ?options:options -> string -> keyword:string -> bool
(** Does the text contain the keyword as a whole token?  The keyword is
    normalized by {!normalize_probe} before comparison. *)

val normalize : string -> string
(** Lower-case a keyword the same way tokenization does. *)

val is_stopword : string -> bool
