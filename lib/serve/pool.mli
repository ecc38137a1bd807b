(** The serving loop: a persistent OCaml 5 [Domain] worker pool over
    shards, driven by one barrier-free scheduler.

    Each shard's slice of the stream is chunked into {e epoch rows} of
    [epoch_batch] requests.  A shard's rows run strictly in epoch
    order; whichever slot ran a row publishes it with one atomic write
    into its [(shard, row)] cell of an {!Ccv_common.Epoch} reorder
    buffer, and the coordinator consumes complete rows in canonical
    [(epoch, shard, seq)] order; the phase a row executes under is
    pre-committed through published atomic cells, a constant two rows
    ahead of the controller.  Nobody waits at a barrier — a
    fast shard runs ahead of a slow one.

    {b Work stealing.}  Who runs which row is {!Sched}'s business:
    shard cursors circulate as tokens in per-slot deques
    ({!Ccv_common.Stealqueue}); shard [s] starts on slot [s mod slots],
    where [slots = min domains shards cores], and every slot — the
    coordinator included — loops claiming a token, its own deque first
    and then another slot's, and running its shard's next ready row;
    one claim runs one whole row, and a hot shard's backlog migrates to
    whoever has cycles.

    {b One slot count.}  The pool has [min domains shards cores] slots
    ({!Domain.recommended_domain_count}); the steal queue and every
    per-slot field of the {!report} have exactly that many entries,
    and [report.domains] is that number.

    Phase decisions depend only on the request stream, the seed, the
    shard count and [epoch_batch] — never on the domain count or
    physical scheduling — so the same stream under 1 domain and under
    8 yields the same transitions, divergence log and served output,
    bit for bit.

    Workers touch no shared metrics state per request: each outcome
    carries its access counts, and the coordinator records it into
    {!Metrics} when it consumes the outcome.

    A worker never lets an exception escape into the pool.  Faults are
    caught next to the failing request and surfaced as [Error] from
    {!run}, naming the shard and the smallest failing request id of
    the earliest faulty row — deterministic regardless of which worker
    slot hit its fault first. *)

open Ccv_model
open Ccv_convert

type config = {
  domains : int;
      (** worker domains asked for; the pool uses
          [min domains shards cores] slots ({!report.domains}) *)
  shards : int;  (** replica pairs; fixes routing, so keep it stable *)
  canary_seed : int;  (** seed for deterministic canary routing *)
  tolerate_reordering : bool;
      (** accept [Modulo_order] (§5.2's weaker level); [false] demands
          strict trace equality *)
  use_plan_cache : bool;
      (** serve through per-shard compiled plan caches
          ({!Shard.create}); [false] re-converts and re-interprets
          every request, the pre-compilation behaviour *)
  fail_request : int option;
      (** fault injection: the worker executing this request id raises
          instead, exercising the crash-propagation path ([Error] from
          {!run}).  [None] (the default) in production *)
  epoch_batch : int;  (** requests per shard per epoch row *)
  live_migration : bool;
      (** serve while migrating: shards start with an {e empty} target
          replica ({!Shard.create} [~live]) that fills by per-request
          fault-in, deterministic backfill between logical rows, and
          dual-applied writes ({!Ccv_migrate.Migrate}).  The first
          request is served without waiting for any bulk translation;
          the controller's promotion gate stays closed until every
          shard's backfill schedule provably covers its keyspace.
          Requires [cutover.initial = Shadow]. *)
  backfill_batch : int;
      (** pending records drained per shard per epoch row during live
          migration *)
  backfill_lag : int;
      (** logical rows served before backfill starts — keeps the very
          first responses free of drain work *)
  fail_backfill : (int * int) option;
      (** fault injection: backfill on shard [fst] fails when its scan
          crosses slot [snd].  Unlike [fail_request] this does {e not}
          error the run: the pool rolls the controller back to Shadow,
          closes the gate, and serves the rest of the stream from the
          source replicas alone.  [None] in production *)
  fingerprint_replicas : bool;
      (** compute {!report.replica_fingerprint} after serving (walks
          every target replica — meant for tests, not production) *)
  cost_based_plans : bool;
      (** optimize every compiled pair under a per-shard cardinality
          snapshot ({!Ccv_plan.Stats}): equality conjuncts ordered by
          observed selectivity, cached plans tagged with the snapshot
          fingerprint ({!Shard.create} [~cost_based]) *)
  stats_every : int;
      (** with [cost_based_plans], re-observe each shard's live target
          replica every N requests and flush/recost its plan cache
          when counts drift past [drift_threshold]; [0] disables the
          periodic check *)
  drift_threshold : float;
      (** largest tolerated relative count change before cached plans
          are considered stale (default [0.5]) *)
}

val default_config : config

type divergence = {
  div_request : int;  (** request id *)
  div_program : string;
  div_phase : string;
  div_shard : int;
  div_epoch : int;  (** logical epoch row *)
  div_seq : int;  (** rank within the shard's slice of that epoch *)
  detail : string;  (** names the first differing event *)
}

(** Per-slot scheduler activity. *)
type slot_steal = {
  rows_run : int;  (** epoch rows this slot executed *)
  stolen : int;  (** claims served by stealing another slot's token *)
}

type report = {
  outcomes : Shadow.outcome list;
      (** all served requests, in canonical [(epoch, shard, seq)]
          consumption order *)
  transitions : Cutover.transition list;
  divergences : divergence list;
  final_phase : Cutover.phase;
  status : Cutover.status;
  metrics : Metrics.t;
  plan_stats : Ccv_plan.Plan_cache.stats;
      (** per-shard plan-cache counters summed over the pool; all zero
          when [use_plan_cache] is off *)
  served : int;
  unserved : int;  (** requests dropped by an abort *)
  domains : int;
      (** worker slots the pool used: [min domains shards cores].
          Every per-slot list below has exactly this many entries. *)
  pool_idle_s : float;
      (** cumulative seconds the slots spent with nothing runnable
          (sleeping on an unpublished phase cell, or parked in the
          pool) — the coordination-overhead signal *)
  worker_idle_s : float list;
      (** the same, per slot (slot 0 is the coordinator) — the skew
          between slots is the load-imbalance signal *)
  steal_wait_s : float list;
      (** per-slot seconds spent probing beyond the local deque (a
          claim that stole, or came up empty) — separated from idle:
          a slot hunting for work is load-shedding, not starved *)
  steal_stats : slot_steal list option;
      (** per-slot scheduler activity, one entry per slot; always
          [Some] *)
  index_advice : string list;
      (** serving-time {!Ccv_convert.Advisor.index_suggestions} under
          the statistics current plans are costed under (drift-rebased
          when [stats_every] fired): concrete [Sdb.ensure_index] calls
          for hot equalities still served by scans, deduplicated over
          the stream's distinct programs.  Empty without
          [cost_based_plans]. *)
  prepare_s : float;
      (** seconds from the start of [run] until the pool could serve
          its first request — bulk replica preparation, or the (cheap)
          live-migration setup.  Separate from [wall_s], which clocks
          serving only: the stop-the-world cost live migration removes
          is exactly this number. *)
  wall_s : float;
  migration : Ccv_migrate.Migrate.summary option;
      (** pool-wide live-migration tallies (slots, fault-ins,
          backfills, merge warnings, first failure); [None] unless
          [live_migration] *)
  replica_fingerprint : string option;
      (** digest over the per-shard canonical target-replica
          fingerprints ({!Ccv_migrate.Migrate.fingerprint_target}), in
          shard order — equal across domain counts and eager/lazy
          preparation for the same stream; [None] unless
          [fingerprint_replicas] *)
}

(** [run ~config ~cutover req sdb requests] — [req] describes the
    conversion (source schema/model, restructuring ops, target model);
    [sdb] is the semantic instance every shard replicates.  [Error _]
    when the cutover config is invalid (a window that is not
    positive), when live migration is asked to start past [Shadow],
    when a shard's replica pair cannot be prepared, or when a worker
    fault (see [fail_request]) interrupts serving. *)
val run :
  ?config:config ->
  cutover:Cutover.config ->
  Supervisor.request ->
  Sdb.t ->
  Request.t list ->
  (report, string) result

(** Transition log, divergence head and metrics tables as one
    printable block. *)
val render : report -> string
