open Ccv_common
open Ccv_migrate

type config = {
  domains : int;
  shards : int;
  canary_seed : int;
  tolerate_reordering : bool;
  use_plan_cache : bool;
  fail_request : int option;
  epoch_batch : int;
  live_migration : bool;
  backfill_batch : int;
  backfill_lag : int;
  fail_backfill : (int * int) option;
  fingerprint_replicas : bool;
  cost_based_plans : bool;
  stats_every : int;
  drift_threshold : float;
}

let default_config =
  { domains = 1;
    shards = 4;
    canary_seed = 0xC0FFEE;
    tolerate_reordering = true;
    use_plan_cache = true;
    fail_request = None;
    epoch_batch = 16;
    live_migration = false;
    backfill_batch = 64;
    backfill_lag = 1;
    fail_backfill = None;
    fingerprint_replicas = false;
    cost_based_plans = false;
    stats_every = 0;
    drift_threshold = 0.5;
  }

type divergence = {
  div_request : int;
  div_program : string;
  div_phase : string;
  div_shard : int;
  div_epoch : int;
  div_seq : int;
  detail : string;
}

(* Per-slot scheduler activity: how many rows the slot executed and
   how many of its claims were steals. *)
type slot_steal = { rows_run : int; stolen : int }

type report = {
  outcomes : Shadow.outcome list;
  transitions : Cutover.transition list;
  divergences : divergence list;
  final_phase : Cutover.phase;
  status : Cutover.status;
  metrics : Metrics.t;
  plan_stats : Ccv_plan.Plan_cache.stats;
  served : int;
  unserved : int;
  domains : int;
  pool_idle_s : float;
  worker_idle_s : float list;
  steal_wait_s : float list;
  steal_stats : slot_steal list option;
  index_advice : string list;
  prepare_s : float;
  wall_s : float;
  migration : Migrate.summary option;
  replica_fingerprint : string option;
}

(* A worker domain never lets an exception escape into the pool — it
   would otherwise strand the coordinator.  The fault is caught next to
   the failing request and carried back as a value; [run] surfaces it
   as [Error] naming the shard and request. *)
type fault = { at_shard : int; at_request : int; fault_detail : string }

let take n l =
  let rec go acc n l =
    match n, l with
    | 0, _ | _, [] -> (List.rev acc, l)
    | n, x :: rest -> go (x :: acc) (n - 1) rest
  in
  go [] n l

let chunks n l =
  let rec go acc l =
    match l with
    | [] -> List.rev acc
    | _ ->
        let c, rest = take n l in
        go (c :: acc) rest
  in
  go [] l

let clock () = Unix.gettimeofday ()

(* Replica preparation is embarrassingly parallel across shards: each
   shard translates and loads its own source/target pair from the same
   (persistent) semantic instance, shard [s] on slot [s mod slots].
   The pool is never larger than the host's core count (see [run]), so
   this CPU-bound work cannot oversubscribe the machine.  A lone shard
   instead hands the pool down so the bulk data translation itself
   chunks across the workers.  Under live migration the snapshot's
   migration plan is built once, here on the calling domain, and every
   shard attaches to it, so each backfill block is translated once for
   the pool. *)
let create_shards ~pool ~use_plan_cache ?cost_based ?stats_every
    ?drift_threshold ?live req sdb nshards =
  let plan =
    match live with
    | None -> Ok None
    | Some config -> Result.map Option.some (Migrate.plan ~config req sdb)
  in
  match plan with
  | Error (stage, reason) -> Error (stage ^ ": " ^ reason)
  | Ok live ->
  let nslots = Workpool.size pool in
  let mk s =
    try
      Shard.create ~id:s ~pool ~use_plan_cache ?cost_based ?stats_every
        ?drift_threshold ?live req sdb
    with e -> Error (Printexc.to_string e)
  in
  let created =
    if nslots = 1 || nshards = 1 then List.init nshards (fun s -> (s, mk s))
    else
      Workpool.step pool (fun w ->
          List.filter_map
            (fun s -> if s mod nslots = w then Some (s, mk s) else None)
            (List.init nshards Fun.id))
      |> Array.to_list |> List.concat
  in
  let rec collect acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | (_, Ok s) :: rest -> collect (s :: acc) rest
    | (i, Error e) :: _ -> Error (Printf.sprintf "shard %d: %s" i e)
  in
  collect []
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) created)

(* Route the stream to shard slices, preserving id order per shard. *)
let route ~nshards requests =
  let per_shard = Array.make nshards [] in
  List.iter
    (fun r ->
      let s = Request.shard_of r ~nshards in
      per_shard.(s) <- r :: per_shard.(s))
    (List.rev requests);
  per_shard

let exec_request ~config ~shards ~phase ~migration_ok s ~epoch ~seq
    (r : Request.t) =
  if config.fail_request = Some r.Request.id then
    failwith "injected worker fault"
  else
    Shard.exec shards.(s) ~phase
      ~tolerate_reordering:config.tolerate_reordering
      ~canary_seed:config.canary_seed ~migration_ok ~clock ~epoch ~seq r

(* ------------------------------------------------------------------ *)
(* Live migration rides the logical clock: before a shard executes
   logical row [row] its backfill drains to the schedule's target for
   that row, and the coordinator opens the promotion gate only when
   the same schedule — a pure function of logical time — provably
   covers every shard's keyspace.  No watermark is ever exchanged, so
   migration adds nothing that could depend on physical scheduling. *)

let backfill_shard ~config ~shards s ~rows ~row =
  match Shard.migration shards.(s) with
  | None -> ()
  | Some m ->
      Shard.backfill_to shards.(s)
        ~to_:
          (Backfill.watermark_target ~total:(Migrate.total m)
             ~batch:config.backfill_batch ~lag:config.backfill_lag ~rows row)

(* Has every shard's schedule covered its keyspace once the canonical
   order has consumed logical row [r]?  A shard whose slice is shorter
   ran its last row already — the schedule forces a full drain there —
   and a shard with no rows at all was drained up front. *)
let migration_converged ~config ~shards ~rows_of r =
  Array.for_all
    (fun sh ->
      match Shard.migration sh with
      | None -> true
      | Some m ->
          let rows_s = rows_of (Shard.id sh) in
          rows_s = 0
          || Backfill.converged ~total:(Migrate.total m)
               ~batch:config.backfill_batch ~lag:config.backfill_lag
               ~rows:rows_s
               (min r (rows_s - 1)))
    shards

(* A shard the router never sends a request to would never reach a
   logical row, so its backfill is drained before serving starts — it
   serves nothing, so the early drain cannot show in any outcome. *)
let drain_unrouted_shards ~shards ~rows_of =
  Array.iter
    (fun sh ->
      match Shard.migration sh with
      | Some _ when rows_of (Shard.id sh) = 0 ->
          Shard.backfill_to sh ~to_:max_int
      | Some _ | None -> ())
    shards

let divergence_of ~epoch (o : Shadow.outcome) detail =
  { div_request = o.Shadow.request.Request.id;
    div_program = o.Shadow.request.Request.aprog.Ccv_abstract.Aprog.name;
    div_phase = o.Shadow.phase;
    div_shard = o.Shadow.shard;
    div_epoch = epoch;
    div_seq = o.Shadow.seq;
    detail;
  }

(* ------------------------------------------------------------------ *)
(* Serving: barrier-free epoch rows over a reorder buffer.

   Each shard's slice of the stream is chunked into epoch rows of
   [epoch_batch] requests.  A shard's rows execute strictly in epoch
   order (so its replica pair evolves exactly as it would
   sequentially), and whichever slot ran a row publishes it with one
   atomic write into its [(shard, row)] cell of an {!Ccv_common.Epoch}
   reorder buffer; nobody waits at any barrier.  The coordinator
   consumes complete rows in canonical [(epoch, shard, seq)] order —
   the same total order no matter how the physical arrivals
   interleave, which is what keeps the report deterministic across
   domain counts.

   The phase a row executes under is pre-committed: [plan.(e)] is an
   atomic cell the coordinator publishes once it has consumed row
   [e - lag] (rows [0 .. lag-1] carry the initial phase).  Workers
   therefore run up to [lag] epochs ahead of the controller — a
   pipeline, not a race: the plan is part of the deterministic order,
   so the same stream yields the same phases at any domain count.
   [lag] is a constant, not a knob: the phase decisions depend on it,
   so fixing it keeps them a function of the stream, the seed, the
   shard count and [epoch_batch] alone.

   Which slot runs which row is {!Sched}'s business; this function
   says what running a row means.  [halt_at] stops the pipeline early
   (abort or fault): rows at or beyond it are never run, and a shard
   whose next row lies past it retires. *)

(* A finished row carries its outcomes plus the owning shard's
   migration-failure message, if any: shard state belongs to the
   token holder, so failure travels to the coordinator with the row
   instead of being read across domains. *)
type epoch_payload =
  | Done of Shadow.outcome list * string option
  | Failed of fault

(* Rows the phase plan is published ahead of the controller. *)
let lag = 2

let serve ~config ~pool ~shards ~ctl ~metrics ~nshards requests =
  let ebatch = max 1 config.epoch_batch in
  let shard_rows =
    Array.map
      (fun slice -> Array.of_list (chunks ebatch slice))
      (route ~nshards requests)
  in
  let rows = Array.map Array.length shard_rows in
  if config.live_migration then
    drain_unrouted_shards ~shards ~rows_of:(fun s -> rows.(s));
  let buf = Epoch.create ~rows in
  let total = Epoch.total_rows buf in
  let plan = Array.init total (fun _ -> Atomic.make None) in
  for e = 0 to min lag total - 1 do
    Atomic.set plan.(e) (Some (Cutover.phase ctl, true))
  done;
  let halt_at = Atomic.make max_int in
  (* Run row [(s, e)]; [seq] is the request's rank within the row. *)
  let exec_row ~phase ~migration_ok s e =
    let rec go seq acc = function
      | [] -> Done (List.rev acc, Shard.migration_failed shards.(s))
      | r :: rest -> (
          match
            exec_request ~config ~shards ~phase ~migration_ok s ~epoch:e ~seq r
          with
          | o -> go (seq + 1) (o :: acc) rest
          | exception ex ->
              Failed
                { at_shard = s;
                  at_request = r.Request.id;
                  fault_detail = Printexc.to_string ex;
                })
    in
    go 0 [] shard_rows.(s).(e)
  in
  (* Coordinator state: consuming complete rows in canonical order. *)
  let outcomes_rev = ref [] and div_rev = ref [] in
  let error = ref None in
  let mig_failed = ref false in
  let consume r cells =
    let faults =
      List.filter_map
        (fun (_, p) -> match p with Failed f -> Some f | Done _ -> None)
        cells
    in
    match faults with
    | f0 :: rest ->
        (* earliest request id within the first faulty row, so the
           report does not depend on arrival interleaving *)
        error :=
          Some
            (List.fold_left
               (fun a b -> if b.at_request < a.at_request then b else a)
               f0 rest);
        Atomic.set halt_at (r + 1)
    | [] ->
        (* a migration failure published with this row rolls the
           controller back before the row's verdicts are observed;
           the canonical order picks the first failing shard, so the
           transition is the same at any domain count *)
        (if config.live_migration && not !mig_failed then
           match
             List.fold_left
               (fun acc (_, p) ->
                 match acc, p with
                 | None, Done (os, Some msg) -> Some (os, msg)
                 | acc, _ -> acc)
               None cells
           with
           | None -> ()
           | Some (os, msg) ->
               mig_failed := true;
               let at =
                 List.fold_left
                   (fun acc (o : Shadow.outcome) ->
                     min acc o.Shadow.request.Request.id)
                   max_int os
               in
               let at = if at = max_int then -1 else at in
               Cutover.rollback_to_shadow ctl ~at ~epoch:r
                 ~reason:(Printf.sprintf "live migration failed: %s" msg));
        if config.live_migration then
          Cutover.set_gate ctl
            ((not !mig_failed)
            && migration_converged ~config ~shards
                 ~rows_of:(fun s -> rows.(s))
                 r);
        let row_phase =
          match Atomic.get plan.(r) with
          | Some (phase, _) -> phase
          | None -> Cutover.phase ctl
        in
        List.iter
          (fun (_, p) ->
            match p with
            | Failed _ -> ()
            | Done (os, _) ->
                List.iter
                  (fun (o : Shadow.outcome) ->
                    Metrics.record metrics o;
                    (* the row may have been planned under an earlier
                       phase: the plan runs [lag] rows ahead *)
                    if o.Shadow.shadowed then
                      Cutover.observe ~served_in:row_phase ctl
                        ~request_id:o.Shadow.request.Request.id ~epoch:r
                        ~divergent:o.Shadow.divergent;
                    (match Shadow.divergence_detail o with
                    | None -> ()
                    | Some detail ->
                        div_rev := divergence_of ~epoch:r o detail :: !div_rev);
                    outcomes_rev := o :: !outcomes_rev)
                  os)
          cells;
        if Cutover.status ctl = Cutover.Aborted then
          Atomic.set halt_at (r + 1)
        else begin
          let e' = r + lag in
          if e' < total then
            Atomic.set plan.(e') (Some (Cutover.phase ctl, not !mig_failed))
        end
  in
  (* Consume every complete row up to the halt fence; [true] if any. *)
  let rec pop_rows got =
    if !error <> None || Atomic.get halt_at <= Epoch.frontier buf then got
    else
      match Epoch.pop_row buf with
      | None -> got
      | Some (r, cells) ->
          consume r cells;
          pop_rows true
  in
  let finished () =
    !error <> None || Epoch.frontier buf >= total
    || Atomic.get halt_at <= Epoch.frontier buf
  in
  (* Complete shard [s]'s rows from [e] on with [Failed f]: rows
     behind a dead shard must not stall the canonical order. *)
  let fault_fill s e f =
    for e = e to rows.(s) - 1 do
      Epoch.publish buf ~shard:s ~epoch:e (Failed f)
    done
  in
  (* Run shard [s]'s row [e] once its phase is published.  [`Retire]
     when the row lies past the halt fence and will never be consumed;
     a fault fills the shard's remaining rows and moves its cursor past
     them. *)
  let run_row ~shard:s ~row:e =
    if Atomic.get halt_at <= e then `Retire
    else
      match Atomic.get plan.(e) with
      | None -> `Blocked
      | Some (phase, mok) -> (
          if config.live_migration && mok then
            backfill_shard ~config ~shards s ~rows:rows.(s) ~row:e;
          match exec_row ~phase ~migration_ok:mok s e with
          | Failed f ->
              fault_fill s e f;
              `Ran rows.(s)
          | Done _ as p ->
              Epoch.publish buf ~shard:s ~epoch:e p;
              `Ran (e + 1))
  in
  (* a scheduler-side failure (request faults are caught in
     [exec_row]) must still complete the shard's rows; best-effort
     fill — rows that stay unpublished anyway are caught by the
     coordinator's quiescence sweep *)
  let on_crash ~shard ~row ex =
    fault_fill shard row
      { at_shard = shard;
        at_request = -1;
        fault_detail = "scheduler: " ^ Printexc.to_string ex;
      }
  in
  let slots =
    Sched.run pool ~clock ~rows ~run_row ~on_crash
      ~consume:(fun () -> pop_rows false)
      ~finished
  in
  match !error with
  | Some f -> Error f
  | None ->
      let outcomes = List.rev !outcomes_rev in
      Ok
        ( outcomes,
          List.rev !div_rev,
          List.length requests - List.length outcomes,
          slots )

(* ------------------------------------------------------------------ *)

let run ?(config = default_config) ~cutover req sdb requests =
  match Cutover.validate cutover with
  | Error msg -> Error msg
  | Ok () ->
  if
    config.live_migration
    && not (Cutover.equal_phase cutover.Cutover.initial Cutover.Shadow)
  then
    Error
      "live migration must start serving in the shadow phase: the \
       convergence gate has no say over a pre-promoted target"
  else
  let nshards = max 1 config.shards in
  (* One slot count for the pool, the steal queue and the report: past
     the shard count a slot has nothing to own, and past the core count
     it competes with the coordinator for a core instead of helping. *)
  let ndomains =
    max 1 (min (min config.domains nshards) (Domain.recommended_domain_count ()))
  in
  Workpool.with_pool ~clock ndomains @@ fun pool ->
  let live =
    if config.live_migration then
      Some
        { Migrate.batch = config.backfill_batch;
          lag = config.backfill_lag;
          fail_at_slot = config.fail_backfill;
        }
    else None
  in
  let t_prep = clock () in
  match create_shards ~pool ~use_plan_cache:config.use_plan_cache
          ~cost_based:config.cost_based_plans ~stats_every:config.stats_every
          ~drift_threshold:config.drift_threshold ?live req sdb nshards
  with
  | Error e -> Error e
  | Ok shards ->
      let prepare_s = clock () -. t_prep in
      let ctl = Cutover.create cutover in
      let metrics = Metrics.create () in
      let t0 = clock () in
      let result = serve ~config ~pool ~shards ~ctl ~metrics ~nshards requests in
      (match result with
      | Error { at_shard; at_request; fault_detail } ->
          Error
            (Printf.sprintf "worker failure at shard %d, request %d: %s"
               at_shard at_request fault_detail)
      | Ok (outcomes, divergences, unserved, slots) ->
          let plan_stats =
            Array.fold_left
              (fun acc s ->
                Ccv_plan.Plan_cache.add_stats acc (Shard.plan_stats s))
              Ccv_plan.Plan_cache.zero_stats shards
          in
          (* idle = pool park time plus the scheduler's naps while
             nothing was runnable; steal-probe time is reported
             separately, it is not idleness *)
          let worker_idle_s =
            Array.to_list
              (Array.map2
                 (fun park (st : Sched.slot_stats) -> park +. st.Sched.idle_s)
                 (Workpool.idle_times pool) slots)
          in
          (* Serving-time index advice: re-run the plan-layer scan
             advisor under the statistics current plans are costed
             under (rebased on drift), once per distinct program — the
             report names the concrete [Sdb.ensure_index] calls whose
             absence leaves a hot equality served by a scan. *)
          let index_advice =
            match
              Array.fold_left
                (fun acc sh ->
                  match acc with
                  | Some _ -> acc
                  | None -> Shard.baseline_stats sh)
                None shards
            with
            | None -> []
            | Some stats ->
                let seen = Hashtbl.create 8 in
                List.concat_map
                  (fun (r : Request.t) ->
                    let p = r.Request.aprog in
                    let name = p.Ccv_abstract.Aprog.name in
                    if Hashtbl.mem seen name then []
                    else begin
                      Hashtbl.add seen name ();
                      List.concat_map
                        (fun query ->
                          List.map
                            (fun s -> s.Ccv_convert.Advisor.message)
                            (Ccv_convert.Advisor.index_suggestions ~stats
                               req.Ccv_convert.Supervisor.source_schema query))
                        (Ccv_abstract.Aprog.queries p)
                    end)
                  requests
                |> List.sort_uniq String.compare
          in
          let migration =
            if not config.live_migration then None
            else
              Some
                (Migrate.sum_summaries
                   (List.filter_map
                      (fun sh -> Option.map Migrate.summary (Shard.migration sh))
                      (Array.to_list shards)))
          in
          let replica_fingerprint =
            if not config.fingerprint_replicas then None
            else
              (* per-shard canonical digests in shard order: each shard
                 replica evolved under its own slice's writes, so the
                 combined digest pins the whole pool's target state *)
              Array.to_list shards
              |> List.map (fun sh ->
                     match
                       Migrate.fingerprint_target req (Shard.target_database sh)
                     with
                     | Ok fp -> fp
                     | Error e -> "error:" ^ e)
              |> String.concat "|"
              |> fun s -> Some (Digest.to_hex (Digest.string s))
          in
          Ok
            { outcomes;
              transitions = Cutover.transitions ctl;
              divergences;
              final_phase = Cutover.phase ctl;
              status = Cutover.status ctl;
              metrics;
              plan_stats;
              served = List.length outcomes;
              unserved;
              domains = ndomains;
              pool_idle_s = List.fold_left ( +. ) 0. worker_idle_s;
              worker_idle_s;
              steal_wait_s =
                Array.to_list
                  (Array.map (fun st -> st.Sched.steal_wait_s) slots);
              steal_stats =
                Some
                  (Array.to_list
                     (Array.map
                        (fun st ->
                          { rows_run = st.Sched.rows_run;
                            stolen = st.Sched.stolen;
                          })
                        slots));
              index_advice;
              prepare_s;
              wall_s = clock () -. t0;
              migration;
              replica_fingerprint;
            })

let render r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "served %d request(s) in %.2fs (replicas prepared in %.3fs); final \
        phase %s (%s)\n"
       r.served r.wall_s r.prepare_s
       (Cutover.phase_name r.final_phase)
       (match r.status with
       | Cutover.Serving -> "serving"
       | Cutover.Aborted ->
           Printf.sprintf "ABORTED, %d request(s) unserved" r.unserved));
  Buffer.add_string b
    (Printf.sprintf "pool: %d worker domain(s), %.3fs idle (%s)\n"
       r.domains r.pool_idle_s
       (String.concat ", "
          (List.map (Printf.sprintf "%.3f") r.worker_idle_s)));
  (match r.steal_stats with
  | None -> ()
  | Some slots ->
      Buffer.add_string b
        (Printf.sprintf "scheduler: %s; steal-wait %.3fs (%s)\n"
           (String.concat ", "
              (List.mapi
                 (fun i s ->
                   Printf.sprintf "slot %d ran %d row(s) (%d stolen)" i
                     s.rows_run s.stolen)
                 slots))
           (List.fold_left ( +. ) 0. r.steal_wait_s)
           (String.concat ", "
              (List.map (Printf.sprintf "%.3f") r.steal_wait_s))));
  (match r.index_advice with
  | [] -> ()
  | advice ->
      Buffer.add_string b
        (Printf.sprintf "index advice (%d):\n" (List.length advice));
      List.iter
        (fun m -> Buffer.add_string b (Printf.sprintf "  - %s\n" m))
        advice);
  (match r.migration with
  | None -> ()
  | Some m ->
      Buffer.add_string b
        (Printf.sprintf
           "live migration: %d slot(s) — %d faulted in, %d backfilled, %d \
            row(s) translated, %d read(s) deferred%s%s\n"
           m.Migrate.total_slots m.Migrate.faulted m.Migrate.backfilled
           m.Migrate.translated_rows m.Migrate.deferred
           (match m.Migrate.mig_warnings with
           | [] -> ""
           | ws -> Printf.sprintf ", %d warning(s)" (List.length ws))
           (match m.Migrate.mig_failed with
           | None -> ""
           | Some msg -> Printf.sprintf "; FAILED: %s" msg)));
  (match r.replica_fingerprint with
  | None -> ()
  | Some fp -> Buffer.add_string b (Printf.sprintf "target replicas: %s\n" fp));
  let ps = r.plan_stats in
  if ps.Ccv_plan.Plan_cache.hits + ps.Ccv_plan.Plan_cache.misses > 0 then begin
    Buffer.add_string b
      (Printf.sprintf
         "plan cache: %d hit(s), %d miss(es), %d compiled pair(s), %.1f%% hit rate\n"
         ps.Ccv_plan.Plan_cache.hits ps.Ccv_plan.Plan_cache.misses
         ps.Ccv_plan.Plan_cache.size
         (100. *. Ccv_plan.Plan_cache.hit_rate ps));
    if ps.Ccv_plan.Plan_cache.drift_invalidations > 0 then
      Buffer.add_string b
        (Printf.sprintf
           "stats drift: %d generation flush(es) past the drift threshold\n"
           ps.Ccv_plan.Plan_cache.drift_invalidations)
  end;
  if r.transitions <> [] then begin
    Buffer.add_string b "\nphase transitions:\n";
    List.iter
      (fun t ->
        Buffer.add_string b
          (Printf.sprintf "  %s\n" (Fmt.str "%a" Cutover.pp_transition t)))
      r.transitions
  end;
  (match r.divergences with
  | [] -> Buffer.add_string b "\nno divergences detected\n"
  | ds ->
      Buffer.add_string b
        (Printf.sprintf "\ndivergence log (%d total, first %d shown):\n"
           (List.length ds)
           (min 5 (List.length ds)));
      List.iteri
        (fun i d ->
          if i < 5 then
            Buffer.add_string b
              (Printf.sprintf
                 "  request %d (%s, %s, shard %d, epoch %d): %s\n"
                 d.div_request d.div_program d.div_phase d.div_shard
                 d.div_epoch d.detail))
        ds);
  Buffer.add_char b '\n';
  Buffer.add_string b (Metrics.render r.metrics);
  Buffer.contents b
