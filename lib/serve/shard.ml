open Ccv_convert
open Ccv_migrate
open Ccv_plan
module Semantic = Ccv_model.Semantic
module Sdb = Ccv_model.Sdb

(* One compiled serving pair: the source program lowered to closures,
   and either the converted target likewise compiled or the conversion
   refusal (cached too — a program the Supervisor refuses once it will
   refuse every time the fingerprint is unchanged). *)
type entry = {
  csrc : Engines.compiled_program;
  ctgt : (Engines.compiled_program, string * string) result;
}

type t = {
  shard_id : int;
  servable : Supervisor.servable;
  target_semantic : Semantic.t;
  mutable source_db : Engines.database;
  mutable target_db : Engines.database;
  use_plan_cache : bool;
  cost_based : bool;
  stats_every : int;  (** observe cardinalities every N requests; 0 = never *)
  drift_threshold : float;
  fingerprint : string;  (** serving (schema/ops/models) part *)
  mutable stats : Stats.t option;
      (** baseline snapshot the cached generation was costed under *)
  mutable requests_seen : int;
  cache : (Ccv_abstract.Aprog.t, (entry, string * string) result) Plan_cache.t;
  migration : Migrate.t option;
}

let id t = t.shard_id
let warnings t = t.servable.Supervisor.warnings
let plan_stats t = Plan_cache.stats t.cache
let migration t = t.migration
let target_database t = t.target_db
let baseline_stats t = t.stats

(* Cached plans depend on the serving definition AND, under cost-based
   selection, on the statistics they were costed with: the combined
   tag makes a statistics rebase flush the generation through the
   plan cache's ordinary fingerprint discipline. *)
let effective_fingerprint t =
  match t.stats with
  | None -> t.fingerprint
  | Some st -> t.fingerprint ^ ":" ^ Stats.fingerprint st

let create ~id ?pool ?(use_plan_cache = true) ?(cost_based = false)
    ?(stats_every = 0) ?(drift_threshold = 0.5) ?live req sdb =
  let finish servable target_semantic target_db migration =
    let stats =
      if cost_based then
        (* Baseline from the semantic instance in hand: the translated
           one when bulk translation ran, the source instance under
           live migration (the target fills toward the same counts). *)
        let snapshot_of =
          match migration with
          | None -> servable.Supervisor.translated
          | Some _ -> sdb
        in
        Some (Stats.of_sdb snapshot_of)
      else None
    in
    { shard_id = id;
      servable;
      target_semantic;
      source_db = servable.Supervisor.source_db;
      target_db;
      use_plan_cache;
      cost_based;
      stats_every;
      drift_threshold;
      fingerprint = Supervisor.serving_fingerprint req;
      stats;
      requests_seen = 0;
      cache = Plan_cache.create ();
      migration;
    }
  in
  match live with
  | None -> (
      match Supervisor.prepare_serving ?pool req sdb with
      | Error (stage, reason) -> Error (stage ^ ": " ^ reason)
      | Ok servable ->
          Ok
            (finish servable
               (Sdb.schema servable.Supervisor.translated)
               servable.Supervisor.target_db None))
  | Some plan -> (
      (* Live migration: source replica only; the target starts empty
         and fills by fault-in and backfill — no bulk translation in
         front of the first request.  The plan is shared by the pool's
         shards, so each backfill block is translated once. *)
      match Supervisor.prepare_live req sdb with
      | Error (stage, reason) -> Error (stage ^ ": " ^ reason)
      | Ok (servable, target_semantic) ->
          let m = Migrate.attach plan ~shard_id:id in
          Ok (finish servable target_semantic (Migrate.engine_db m) (Some m)))

(* Advance this shard's backfill watermark (no-op without live
   migration or after a migration failure). *)
let backfill_to t ~to_ =
  match t.migration with
  | None -> ()
  | Some m ->
      Migrate.sync_engine_db m t.target_db;
      Migrate.backfill_to m ~to_;
      t.target_db <- Migrate.engine_db m

let migration_failed t =
  match t.migration with None -> None | Some m -> Migrate.failed m

(* Periodic statistics observation: every [stats_every] requests (and
   only once migration is complete — a filling extent is drift by
   construction), rebuild a count snapshot from the live target
   replica and compare against the baseline the cached generation was
   costed under.  Past the threshold, flush the generation via
   [note_drift] and rebase: the next request recompiles under the new
   combined fingerprint.  Deterministic per shard — the trigger is the
   shard-local request counter, not wall-clock. *)
let check_drift t =
  t.requests_seen <- t.requests_seen + 1;
  if
    t.cost_based && t.stats_every > 0
    && t.requests_seen mod t.stats_every = 0
    && (match t.migration with
       | None -> true
       | Some m -> Migrate.failed m = None && Migrate.n_done m >= Migrate.total m)
  then
    match t.stats with
    | None -> ()
    | Some baseline ->
        let observed = Engines.observed_stats t.target_semantic t.target_db in
        (* hierarchical targets expose no counts: snapshot is empty,
           drift stays inert *)
        if observed.Stats.entities <> [] then
          if Stats.drift ~baseline ~observed > t.drift_threshold then begin
            Plan_cache.note_drift t.cache;
            t.stats <- Some observed
          end

let run_source t program input =
  let r = Engines.run ~input t.source_db program in
  t.source_db <- r.Engines.final_db;
  r

let run_target t program input =
  let r = Engines.run ~input t.target_db program in
  t.target_db <- r.Engines.final_db;
  r

let run_source_compiled t cp input =
  let r = Engines.run_compiled ~input t.source_db cp in
  t.source_db <- r.Engines.final_db;
  r

let run_target_compiled t cp input =
  let r = Engines.run_compiled ~input t.target_db cp in
  t.target_db <- r.Engines.final_db;
  r

(* What the shard will actually execute for a request: nothing (the
   request cannot even be generated), the source side alone (conversion
   refused), or both sides.  The thunks close over the mutable replica
   pair so execution order stays exactly as before. *)
type resolved =
  | Refused
  | Fallback of (unit -> Engines.run_result)
  | Pair of (unit -> Engines.run_result) * (unit -> Engines.run_result)

let resolve t ~epoch aprog =
  let stats = if t.cost_based then t.stats else None in
  if t.use_plan_cache then
    let compiled =
      Plan_cache.find_or_compile t.cache ~fingerprint:(effective_fingerprint t)
        aprog
        ~compile:(fun aprog ->
          match Supervisor.serve_pair ~at_epoch:epoch ?stats t.servable aprog with
          | Error e -> Error e
          | Ok { Supervisor.source_program; target_program; pair_issues = _ }
            ->
              Ok
                { csrc = Engines.compile source_program;
                  ctgt = Result.map Engines.compile target_program;
                })
    in
    match compiled with
    | Error _ -> Refused
    | Ok { csrc; ctgt = Error _ } ->
        Fallback (fun () -> run_source_compiled t csrc [])
    | Ok { csrc; ctgt = Ok ctgt } ->
        Pair
          ( (fun () -> run_source_compiled t csrc []),
            fun () -> run_target_compiled t ctgt [] )
  else
    match Supervisor.serve_pair ~at_epoch:epoch ?stats t.servable aprog with
    | Error _ -> Refused
    | Ok { Supervisor.source_program; target_program = Error _; _ } ->
        Fallback (fun () -> run_source t source_program [])
    | Ok { Supervisor.source_program; target_program = Ok tp; _ } ->
        Pair
          ( (fun () -> run_source t source_program []),
            fun () -> run_target t tp [] )

let exec t ~phase ~tolerate_reordering ~canary_seed ?(migration_ok = true)
    ~clock ~epoch ~seq request =
  let t0 = clock () in
  check_drift t;
  (* Live migration: admit, then fault in everything the request may
     touch before it runs, so the dual-run never sees a
     partially-translated extent.  Admission is the analyzer's static
     depth check — a request navigating past the demand-closure hop
     cap is refused up front (source-only, counted as refused, the
     offending access path recorded in the migration warnings) instead
     of failing mid-migration.  The fault-in time lands in this
     request's latency — the cost the migration bench measures.  A
     read-only request scanning an entity backfill has not finished is
     deferred instead: served by the source alone, unjudged.  Once
     migration has failed (here, on another row, or globally via
     [migration_ok = false] from the coordinator's plan), the target
     replica is no longer maintained and the shard serves
     source-only. *)
  let admission =
    match t.migration with
    | None -> `Active
    | Some m ->
        if (not migration_ok) || Migrate.failed m <> None then `Inactive
        else begin
          match Migrate.admit request.Request.aprog with
          | Error d ->
              Migrate.note_refusal m d;
              `Refused
          | Ok () ->
              Migrate.sync_engine_db m t.target_db;
              let prepared =
                try Migrate.prepare_request m request.Request.aprog
                with e ->
                  Migrate.mark_failed m (Printexc.to_string e);
                  Migrate.Faulted 0
              in
              t.target_db <- Migrate.engine_db m;
              if Migrate.failed m = None && prepared <> Migrate.Deferred then
                `Active
              else `Inactive
        end
  in
  let phase_name = Cutover.phase_name phase in
  let finish ~decision ~shadowed ~verdict ~divergent ~refused ~served_trace
      ~source_accesses ~target_accesses =
    let tdone = clock () in
    { Shadow.request;
      shard = t.shard_id;
      epoch;
      seq;
      phase = phase_name;
      decision;
      shadowed;
      verdict;
      divergent;
      refused;
      served_trace;
      latency_us = (tdone -. t0) *. 1e6;
      done_at = tdone;
      source_accesses;
      target_accesses;
    }
  in
  match resolve t ~epoch request.Request.aprog with
  | Refused ->
      (* Not even a source program: nothing to run, count the refusal. *)
      finish ~decision:Shadow.Serve_source ~shadowed:false ~verdict:None
        ~divergent:false ~refused:true ~served_trace:[] ~source_accesses:0
        ~target_accesses:0
  | Fallback run_src ->
      (* Conversion refused: fall back to the source engine in any
         phase (during cutover this is the residual legacy path). *)
      let r = run_src () in
      finish ~decision:Shadow.Serve_source ~shadowed:false ~verdict:None
        ~divergent:false ~refused:true ~served_trace:r.Engines.trace
        ~source_accesses:r.Engines.accesses ~target_accesses:0
  | Pair (run_src, run_tgt) when admission = `Refused ->
      ignore run_tgt;
      (* Admission refused the request's navigation depth: serve the
         source engine alone and count the refusal — the target
         replica stays consistent because nothing was faulted in. *)
      let r = run_src () in
      finish ~decision:Shadow.Serve_source ~shadowed:false ~verdict:None
        ~divergent:false ~refused:true ~served_trace:r.Engines.trace
        ~source_accesses:r.Engines.accesses ~target_accesses:0
  | Pair (run_src, run_tgt) when admission = `Inactive ->
      ignore run_tgt;
      (* Migration rolled back (the target replica is stale) or the
         request was deferred (its extent is not translated yet): serve
         the source engine alone without shadowing. *)
      let r = run_src () in
      finish ~decision:Shadow.Serve_source ~shadowed:false ~verdict:None
        ~divergent:false ~refused:false ~served_trace:r.Engines.trace
        ~source_accesses:r.Engines.accesses ~target_accesses:0
  | Pair (run_src, run_tgt) -> (
      match phase with
      | Cutover ->
          let r = run_tgt () in
          finish ~decision:Shadow.Serve_target ~shadowed:false ~verdict:None
            ~divergent:false ~refused:false ~served_trace:r.Engines.trace
            ~source_accesses:0 ~target_accesses:r.Engines.accesses
      | Shadow | Canary _ ->
          let decision =
            match phase with
            | Canary f when Request.canary_draw ~seed:canary_seed request < f
              ->
                Shadow.Serve_target
            | Shadow | Canary _ | Cutover -> Shadow.Serve_source
          in
          let sr = run_src () in
          let tr = run_tgt () in
          let verdict, divergent =
            Shadow.judge ~tolerate_reordering sr.Engines.trace tr.Engines.trace
          in
          let served_trace =
            match decision with
            | Shadow.Serve_source -> sr.Engines.trace
            | Shadow.Serve_target -> tr.Engines.trace
          in
          finish ~decision ~shadowed:true ~verdict:(Some verdict) ~divergent
            ~refused:false ~served_trace
            ~source_accesses:sr.Engines.accesses
            ~target_accesses:tr.Engines.accesses)
