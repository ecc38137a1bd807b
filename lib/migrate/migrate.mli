(** Live migration: the paper's data translation run {e concurrently}
    with serving instead of ahead of it.

    State comes in two parts.  A {!plan} is everything derived from the
    immutable migration-start snapshot: the ops, the target schema,
    the slot order, the partner, row and link indexes, and one backfill
    cell per block of [batch] slots.  It is built once, on one domain,
    and shared read-only by every shard replica of a pool — the paper's
    restructured database [T(db)] depends on [db] alone.  A shard
    ({!t}) holds only what its own replica needs: the empty-at-start
    target replica ({!Ccv_convert.Supervisor.prepare_live}), its
    loader, a translated/pending flag per source record ({e slot}),
    the target rows and links it has merged, its counters and
    warnings.  Records reach a shard's target three ways, all
    translated from the snapshot:

    - {b fault-in}: {!prepare_request} translates everything a request
      may touch before the request is dual-run, so no request ever
      observes a partially-translated extent — key-equality lookups
      drain one record; read-only scans of an entity backfill has not
      finished defer (served by the source alone, unjudged), and only
      a write's scan drains the whole entity.  Fault-in translates
      per shard;
    - {b backfill}: {!backfill_to} drains the slots a deterministic
      schedule ({!Backfill.watermark_target}) assigns to each logical
      row, between serving rows, in an owner-grouped slot order (see
      {!plan}) that keeps each block's closure close to the block
      itself.  Block [k] (slots [[k·batch, (k+1)·batch)]) is
      translated over all its slots, drained or not, so the result
      does not depend on the shard; the first shard to reach it
      translates it under the cell's lock and every shard applies the
      same result.  The cell drops the translation once every
      attached shard has applied it (or failed), so a pool holds only
      the blocks some shard has yet to reach;
    - {b dual-apply}: mutating requests run on both replicas (the
      serving layer's shadow pair), which is sound because their touch
      set was faulted in first — a write always lands on
      already-translated records, so backfill never races it.

    Each drained record is translated as a {e closure}: the record,
    its link partners, and their partners ride in one
    {!Ccv_transform.Data_translate.translate_slice} call, so ops that
    compute across links (Interpose groupings, Collapse field pulls)
    see full context; the record and its hop-1 partners merge into the
    replica (insert-if-absent against the shard's own merged set, via
    {!Ccv_transform.Mapping.loader_add} in lenient mode), hop 2 is
    context only; {!summary} counts the rows of every slice a shard
    applied, so it reads the same whichever shard translated a block.
    Restructurings whose data dependencies span more than two
    associations are out of scope.  The final contents equal a bulk
    translation followed by the same writes, because per-record
    snapshot translation commutes with writes that always follow their
    records' fault-in.  Records are identified by their key under
    {!Ccv_common.Value.Key} equality.

    All progress is keyed to logical time (epoch rows), never
    physical scheduling, so migration preserves the serving layer's
    domain-count determinism: which shard translates a block changes
    nothing any shard applies. *)

open Ccv_model
open Ccv_abstract
open Ccv_convert

type config = {
  batch : int;  (** backfill slots drained per logical row *)
  lag : int;  (** logical rows before backfill starts *)
  fail_at_slot : (int * int) option;
      (** fault injection: backfill on shard [fst] raises when its scan
          crosses slot [snd]; [None] in production *)
}

val default_config : config

(** The shared, immutable-once-built part: snapshot, ops, target
    schema, slot order and indexes, and the backfill cells. *)
type plan

(** One shard's migration state over a {!plan}. *)
type t

type summary = {
  total_slots : int;  (** source records subject to migration *)
  faulted : int;  (** slots drained on demand by requests *)
  backfilled : int;  (** slots drained by the backfill driver *)
  deferred : int;
      (** read-only requests served by the source alone because they
          scan an entity with undrained slots; no slot is drained *)
  translated_rows : int;
      (** source rows assembled into translated slices over fault-in
          and backfill — the closure's amplification: divided by the
          slots drained, the rows each drained record cost *)
  mig_warnings : string list;
      (** records/links the merge could not place (e.g. deleted by a
          concurrent dual-applied cascade), plus admission refusals
          recorded by {!note_refusal} *)
  mig_failed : string option;  (** why migration stopped, if it did *)
}

(** Pool-wide tallies from per-shard summaries: counts add, warnings
    concatenate in list order, and the first failure wins.  [[]] gives
    all zeros. *)
val sum_summaries : summary list -> summary

(** [plan ?config req sdb] — snapshot [sdb], derive the target
    schema, the snapshot's partner, row and link indexes and the slot
    order.  No data is translated yet; [config.batch] sets the
    backfill block size.

    The slots are ordered so that a backfill block's closure stays
    close to the block itself.  Entity blocks follow
    {!Ccv_transform.Mapping.load_order}, so owners drain first; within
    a block, records are stably sorted by the smallest slot among their
    link partners in earlier blocks, so one owner's members are
    contiguous.  Records without such a partner keep snapshot order at
    the end of their block.  The order is a pure function of the
    snapshot, hence the same at every domain count. *)
val plan :
  ?config:config -> Supervisor.request -> Sdb.t ->
  (plan, string * string) result

(** [attach plan ~shard_id] — a shard with an empty target replica
    over [plan].  Attach every shard before any of them drains: a
    block's cell is freed once as many shards as were attached have
    applied it. *)
val attach : plan -> shard_id:int -> t

(** [start ~shard_id req sdb] — a private {!plan} with one shard
    attached, plus the shard's servable (source replica, empty
    target). *)
val start :
  ?config:config -> shard_id:int -> Supervisor.request -> Sdb.t ->
  (t * Supervisor.servable, string * string) result

(** Backfill blocks translated so far over the plan — once each when
    every shard attached before draining. *)
val blocks_translated : plan -> int

(** Backfill blocks whose translation the plan still holds: translated,
    not yet applied by every attached shard. *)
val blocks_held : plan -> int

val total : t -> int
val n_done : t -> int
val watermark : t -> int
val failed : t -> string option
val mark_failed : t -> string -> unit
val summary : t -> summary

(** The pending records in drain order: (source entity, row) per slot. *)
val slot_order : t -> (string * Ccv_common.Row.t) list

(** The target replica as served.  Dual-applied writes advance the
    shard's copy outside the loader: [sync_engine_db] pushes the
    current served state in before a merge, [engine_db] reads the
    merged state back. *)

val engine_db : t -> Engines.database
val sync_engine_db : t -> Engines.database -> unit

(** Navigation-depth cap the per-record translation closure covers
    (= {!Ccv_analysis.Depth.default_cap}): the drained record, its link
    partners, and their partners. *)
val hop_cap : int

(** Static admission check: requests whose access paths navigate more
    than {!hop_cap} association hops cannot be faulted in consistently
    and must be refused {e before} the dual-run, with the offending
    path named in the diagnostic. *)
val admit : Aprog.t -> (unit, Ccv_common.Diagnostic.t) result

(** Record an admission refusal in the shard's migration warnings
    (deduplicated), so the pool report shows which access paths were
    turned away. *)
val note_refusal : t -> Ccv_common.Diagnostic.t -> unit

type prepared =
  | Faulted of int  (** records translated on demand *)
  | Deferred
      (** nothing translated: the request only reads, and it scans a
          whole entity that still has undrained slots.  The caller
          serves it by the source alone and does not judge it; it is
          counted in {!summary}'s [deferred].  Writes never defer,
          because dual-apply is sound only on translated records, and
          only the shadow phase can see a deferral, because promotion
          waits until backfill has drained every slot. *)

(** Fault in the request's touch set, or defer the request.
    [Faulted 0] once failed or fully drained. *)
val prepare_request : t -> Aprog.t -> prepared

(** Advance the backfill watermark to [to_], rounded up to the next
    multiple of [config.batch] and clamped to [total], draining every
    still-pending slot below it; each block comes whole from the
    plan's shared cell.  No-op once failed. *)
val backfill_to : t -> to_:int -> unit

(** Canonical content fingerprint of a semantic instance — rows,
    fields and links sorted, so engine insertion order (bulk load
    vs. record-at-a-time merge) does not show; floats render with 17
    significant digits, so distinct floats never fingerprint alike. *)
val fingerprint_of_sdb : Sdb.t -> string

(** Fingerprint of a target replica under [req]'s conversion
    (extracted back to the semantic model, then
    {!fingerprint_of_sdb}). *)
val fingerprint_target :
  Supervisor.request -> Engines.database -> (string, string) result
