(** Two-level bitset over [0 .. n-1] — the flat engine's enabled set.

    Level 0 packs 32 members per word; level 1 summarizes 32 level-0 words
    per bit, so iterating a sparse set over a million nodes scans ~1000
    summary words instead of ~31000, and an empty region costs one load.

    Each 1024-node block (the nodes under one level-1 word) also keeps its
    member count, bumped by {!add}/{!remove} exactly when they change the
    set, next to the level-1 word they already touch; {!nth} searches
    those counts first.  There is no whole-set count: {!add}/{!remove}
    report whether they changed the set, and each caller keeps its own
    total.  In partitioned runs every domain owns an aligned slice (see
    {!part_align}), so a block's level-1 word and its count are written
    only by the domain that owns the block and the structure is updated
    race-free. *)

type t

val part_align : int
(** Partition boundaries must be multiples of this (32·32 = 1024): a
    level-1 word and its block count then never span two partitions, and
    concurrent {!add}/{!remove} from different partitions touch disjoint
    words. *)

val create : int -> t
(** All-empty set over [0 .. n-1]. *)

val length : t -> int
val mem : t -> int -> bool

val add : t -> int -> bool
(** [true] iff [u] was not yet a member. *)

val remove : t -> int -> bool
(** [true] iff [u] was a member. *)

val iter : t -> (int -> unit) -> unit
(** Members in increasing order. *)

val iter_range : t -> int -> int -> (int -> unit) -> unit
(** [iter_range t lo hi f]: members in [lo, hi), increasing. *)

val count_range : t -> int -> int -> int
(** Popcount over [lo, hi). *)

val nth : t -> int -> int
(** [nth t i] is the [i]-th smallest member (0-indexed).  Cost
    O(n/1024 + 32): a scan of the block counts, then at most 32 level-0
    popcounts inside the chosen block.
    @raise Invalid_argument when [i < 0] or fewer than [i+1] members
    exist. *)

val next_geq : t -> int -> int
(** Smallest member ≥ [u], or [-1]. *)
