(** Low-level access accounting.  Every engine charges its record
    touches here so that experiment E1 can compare the access cost of
    converted programs against the emulation and bridge baselines.

    Counters are domain-safe: the fields are [Atomic.t], so engines
    running on separate domains can charge one counter without
    races.  [snapshot] reads the two
    fields independently — it is not an atomic pair read.

    Atomic increments from many domains contend on the counter's cache
    line, so hot loops should not charge a shared counter per event
    from several domains.  The serving pool charges none on the
    request hot path: shard workers carry each request's access count
    in its outcome, and the coordinator aggregates it into the serving
    metrics when it consumes the outcome. *)

type t

val create : unit -> t

val record_read : t -> unit
val record_write : t -> unit

(** Charge [n] reads at once (bulk scans). *)
val record_reads : t -> int -> unit

(** Charge [n] writes at once (bulk loads). *)
val record_writes : t -> int -> unit

val reads : t -> int
val writes : t -> int
val total : t -> int
val reset : t -> unit

(** [diff after before] as (reads, writes) — [snapshot]-style use. *)
val snapshot : t -> int * int
