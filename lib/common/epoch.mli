(** The reorder buffer that restores a deterministic total order over
    per-shard epoch publications.

    Barrier-free serving lets every shard run ahead at its own pace and
    publish each epoch row whenever it finishes it — so the physical
    arrival order of rows depends on scheduling.  Determinism is
    recovered logically: the consumer releases publications in
    [(epoch, shard)] order, which depends only on the request stream
    and the shard count, never on domains or timing.

    The {!t} buffer implements exactly that release discipline: shards
    declare up front how many epoch rows they will publish, arbitrary
    interleavings of {!publish} go in — from any domain — and
    {!pop_row} hands back complete epoch rows: epoch 0 of every shard
    (shard order), then epoch 1, and so on.  Feeding any interleaving
    of the same publications yields the same sequence of rows; the
    qcheck property suite checks this against sequential execution. *)

(** Reorder buffer over per-shard epoch publications. *)
type 'a t

(** [create ~rows] — [rows.(s)] is the number of epoch rows shard [s]
    will publish.  A shard with fewer rows than the longest simply
    stops contributing to later rows. *)
val create : rows:int array -> 'a t

(** Number of rows in the longest shard stream — the row index domain
    of {!pop_row}. *)
val total_rows : 'a t -> int

(** [publish t ~shard ~epoch v] — shard [shard]'s payload for epoch
    row [epoch], one atomic write.  Callable from any domain, in any
    arrival order, concurrently with {!pop_row}: a payload built before
    its publish is fully visible to the pop that releases it.
    Publishing the same cell twice (including two racing domains: one
    wins) or beyond the declared row count is a programming error
    ([Invalid_argument]). *)
val publish : 'a t -> shard:int -> epoch:int -> 'a -> unit

(** Next complete epoch row in canonical order, as
    [(epoch, (shard, payload) list)] with payloads in ascending shard
    order; shards whose streams ended before this row are absent.
    [None] while the row is still missing a publication.  One consumer
    domain only. *)
val pop_row : 'a t -> (int * (int * 'a) list) option

(** Rows fully released so far — the consumption frontier.  Consumer
    domain only. *)
val frontier : 'a t -> int
