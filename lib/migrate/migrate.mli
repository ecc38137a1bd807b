(** Per-shard live-migration state: the paper's data translation run
    {e concurrently} with serving instead of ahead of it.

    A shard starts with its source replica and an {e empty} target
    replica ({!Ccv_convert.Supervisor.prepare_live}), plus a
    translated/pending flag per source record ({e slot}).  Records
    reach the target three ways, all translated from the immutable
    migration-start snapshot:

    - {b fault-in}: {!prepare_request} translates everything a request
      may touch before the request is dual-run, so no request ever
      observes a partially-translated extent — key-equality lookups
      drain one record; read-only scans of an entity backfill has not
      finished defer (served by the source alone, unjudged), and only
      a write's scan drains the whole entity;
    - {b backfill}: {!backfill_to} drains the slots a deterministic
      schedule ({!Backfill.watermark_target}) assigns to each logical
      row, in batches, between serving rows, in an owner-grouped slot
      order (see {!start}) that keeps each batch's closure close to
      the batch itself;
    - {b dual-apply}: mutating requests run on both replicas (the
      serving layer's shadow pair), which is sound because their touch
      set was faulted in first — a write always lands on
      already-translated records, so backfill never races it.

    Each drained record is translated as a {e closure}: the record,
    its link partners, and their partners ride in one
    {!Ccv_transform.Data_translate.translate_slice} call, so ops that
    compute across links (Interpose groupings, Collapse field pulls)
    see full context; the record and its hop-1 partners merge into the
    replica (insert-if-absent, via {!Ccv_transform.Mapping.loader_add}
    in lenient mode), hop 2 is context only; {!summary} counts the
    rows every closure translated.  Restructurings whose
    data dependencies span more than two associations are out of
    scope.  The final contents equal a bulk translation followed by
    the same writes, because per-record snapshot translation commutes
    with writes that always follow their records' fault-in.

    All progress is keyed to logical time (epoch rows), never
    physical scheduling, so migration preserves the serving layer's
    domain-count determinism. *)

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

(** [start ~shard_id req sdb] — snapshot [sdb], derive the target
    schema, build the empty target replica, the snapshot's partner
    index and the pending set.  No data is translated yet.

    The slots are ordered so that a backfill batch's closure stays
    close to the batch itself.  Entity blocks follow
    {!Ccv_transform.Mapping.load_order}, so owners drain first; within
    a block, records are stably sorted by the smallest slot among their
    link partners in earlier blocks, so one owner's members are
    contiguous.  Records without such a partner keep snapshot order at
    the end of their block.  The order is a pure function of the
    snapshot, hence the same at every domain count. *)
val start :
  ?config:config -> shard_id:int -> Supervisor.request -> Sdb.t ->
  (t * Supervisor.servable, string * string) result

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

(** Advance the backfill watermark to [to_] (clamped to [total]),
    draining every still-pending slot below it.  No-op once failed. *)
val backfill_to : t -> to_:int -> unit

(** Canonical content fingerprint of a semantic instance — rows,
    fields and links sorted, so engine insertion order (bulk load
    vs. record-at-a-time merge) does not show. *)
val fingerprint_of_sdb : Sdb.t -> string

(** Fingerprint of a target replica under [req]'s conversion
    (extracted back to the semantic model, then
    {!fingerprint_of_sdb}). *)
val fingerprint_target :
  Supervisor.request -> Engines.database -> (string, string) result
