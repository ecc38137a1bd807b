(** A shard owns one source/target database replica pair and serves
    its partition of the request stream sequentially, so each engine
    stays single-threaded: parallelism comes from running many shards
    on many domains, never from sharing an engine.  Database updates a
    request makes are retained in the shard's replicas for subsequent
    requests of the same shard. *)

open Ccv_model
open Ccv_convert

type t

val id : t -> int

(** [create ~id req sdb] realizes the shard's own replica pair from
    the semantic instance via {!Supervisor.prepare_serving}.  With
    [use_plan_cache] (the default), each distinct request program is
    converted and compiled to closures once
    ({!Ccv_convert.Engines.compile}) and memoized in a per-shard
    {!Ccv_plan.Plan_cache} keyed by the serving fingerprint —
    subsequent requests for the same program skip the whole
    analyze/convert/generate/compile pipeline.  Conversion refusals
    are cached too; the served behaviour is identical either way.
    [pool] parallelizes the bulk data translation of replica
    preparation (no-op when creation itself already runs on a pool
    worker).

    With [live], the shard prepares for {e live migration} instead
    ({!Ccv_convert.Supervisor.prepare_live}, then
    {!Ccv_migrate.Migrate.attach} to the given plan): the target
    replica starts empty and fills on first touch and by backfill, so
    creation does no bulk data translation at all.  Shards attached to
    one plan share its backfill translations; the plan must have been
    built from the same [req] and [sdb].

    With [cost_based], a cardinality snapshot ({!Ccv_plan.Stats}) is
    taken at creation and every compiled pair is optimized under it
    (selectivity-ordered conjuncts); cached plans carry the snapshot's
    fingerprint.  [stats_every = n] (with [n > 0]) re-observes the
    live target replica every [n] requests of this shard; when the
    largest relative count change exceeds [drift_threshold] (default
    0.5), the plan-cache generation is flushed
    ({!Ccv_plan.Plan_cache.note_drift}) and the statistics rebased, so
    subsequent requests are recosted under current cardinalities. *)
val create :
  id:int -> ?pool:Ccv_common.Workpool.t -> ?use_plan_cache:bool ->
  ?cost_based:bool -> ?stats_every:int -> ?drift_threshold:float ->
  ?live:Ccv_migrate.Migrate.plan ->
  Supervisor.request -> Sdb.t ->
  (t, string) result

(** Data-translation warnings from replica preparation. *)
val warnings : t -> string list

(** Live-migration state, when the shard was created [~live]. *)
val migration : t -> Ccv_migrate.Migrate.t option

(** Why this shard's migration stopped, if it did. *)
val migration_failed : t -> string option

(** The target replica as currently served (for fingerprinting). *)
val target_database : t -> Engines.database

(** Drain this shard's pending records up to slot [to_]
    ({!Ccv_migrate.Migrate.backfill_to}); no-op without live migration
    or after a failure. *)
val backfill_to : t -> to_:int -> unit

(** Hit/miss/invalidation counters of this shard's plan cache (all
    zero when the cache is disabled). *)
val plan_stats : t -> Ccv_plan.Plan_cache.stats

(** The statistics snapshot current plans are costed under; [None]
    unless the shard was created [~cost_based:true]. *)
val baseline_stats : t -> Ccv_plan.Stats.t option

(** Execute one request under the given phase.  [epoch]/[seq] stamp
    the outcome with its logical position — the epoch row and the
    request's rank within the shard's slice of it — and [epoch] also
    tags plan-cache compilations done on this request's behalf.  The
    outcome carries the request's engine accesses; the pool's
    coordinator records them into {!Metrics} when it consumes the
    outcome, so execution touches no shared counter.
    [clock] supplies seconds for latency measurement.

    Under live migration the request's touch set is faulted in first
    (that time lands in the request's latency), and
    [migration_ok = false] — the coordinator's signal that migration
    failed somewhere in the pool — makes the shard serve the source
    engine alone, unshadowed. *)
val exec :
  t ->
  phase:Cutover.phase ->
  tolerate_reordering:bool ->
  canary_seed:int ->
  ?migration_ok:bool ->
  clock:(unit -> float) ->
  epoch:int ->
  seq:int ->
  Request.t ->
  Shadow.outcome
