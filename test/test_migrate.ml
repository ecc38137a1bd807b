(* Live migration: serving starts against an empty target replica that
   fills online by fault-in, backfill and dual-applied writes.  The
   lazy run must be observationally equivalent to the eager one — the
   same phases after the same number of judged requests, the same
   served output modulo order, bit-identical final target replicas —
   at any domain count; read-only scans of an undrained extent defer
   instead of faulting it in; the backfill schedule must be monotone;
   and a backfill fault must roll the controller back to source-only
   serving instead of erroring the run. *)

open Ccv_common
open Ccv_model
open Ccv_transform
open Ccv_convert
open Ccv_migrate
open Ccv_serve
module W = Ccv_workload
module G = Ccv_workload.Generator

let check = Alcotest.(check bool)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let interpose_op =
  Schema_change.Interpose
    { through = W.Company.div_emp;
      new_entity = W.Company.dept;
      group_by = [ "DEPT-NAME" ];
      left_assoc = W.Company.div_dept;
      right_assoc = W.Company.dept_emp;
    }

let net_req ops =
  { Supervisor.source_schema = W.Company.schema;
    source_model = Mapping.Net;
    ops;
    target_model = Mapping.Net;
  }

(* The convergence gate must be open before the eager run's first
   promotion, or the gate itself would shift the transition log: with
   72 slots over 8 shards (9 each) and batch 3 / lag 1, every shard's
   schedule covers its keyspace by logical row 3, while 56 clean
   observations cannot accumulate before row 3 at 16 requests per
   row. *)
let cutover_cfg =
  { Cutover.canary_fraction = 0.25;
    window = 16;
    min_observations = 6;
    max_divergence_rate = 0.2;
    promote_after = 56;
    initial = Cutover.Shadow;
  }

let requests ~n =
  Request.stream ~seed:707 W.Company.schema ~sample:(W.Company.instance ())
    ~n ()

let run_service ?(domains = 1) ?(live = false) ?fail_backfill ?(n = 128) () =
  let config =
    { Pool.default_config with
      domains;
      shards = 8;
      epoch_batch = 2;
      canary_seed = 707;
      live_migration = live;
      backfill_batch = 3;
      backfill_lag = 1;
      fail_backfill;
      fingerprint_replicas = true;
    }
  in
  match
    Pool.run ~config ~cutover:cutover_cfg (net_req [ interpose_op ])
      (W.Company.instance ())
      (requests ~n)
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "service failed to start: %s" e

let terminal_output (r : Pool.report) =
  List.map
    (fun (o : Shadow.outcome) ->
      ( o.Shadow.request.Request.id,
        Io_trace.terminal_lines o.Shadow.served_trace ))
    r.Pool.outcomes

(* Every request's served trace, by request id, modulo order.  Eager and
   lazy runs may serve one request from different engines — a deferred
   read is served by the source, so live promotes later — and
   target-served output may legitimately reorder records: record-at-a-
   time merge gives the target replica a different physical insertion
   order, the [Modulo_order] level of §5.2.  Full output must still be
   identical across domain counts of the {e same} run. *)
let served_modulo_order (r : Pool.report) =
  List.sort compare
    (List.map
       (fun (o : Shadow.outcome) ->
         ( o.Shadow.request.Request.id,
           List.sort Io_trace.compare_event o.Shadow.served_trace ))
       r.Pool.outcomes)

(* Each transition as (from, to, verdicts the controller had observed
   when it fired).  The controller observes a judged request when it
   was served under the controller's current phase or diverged — a
   clean row planned under an earlier phase is not its evidence — and
   deferred reads
   are never judged, so a lazy run's transitions carry later request
   ids than the eager run's but fire after the same number of observed
   verdicts. *)
let judged_transitions (r : Pool.report) =
  let phase = ref Cutover.Shadow and pending = ref r.Pool.transitions in
  let fired = ref [] in
  ignore
    (List.fold_left
       (fun n (o : Shadow.outcome) ->
         let n =
           if
             o.Shadow.verdict <> None
             && (o.Shadow.divergent
                || o.Shadow.phase = Cutover.phase_name !phase)
           then n + 1
           else n
         in
         let rec fire () =
           match !pending with
           | (t : Cutover.transition) :: rest
             when t.Cutover.at_request = o.Shadow.request.Request.id ->
               fired :=
                 ( Cutover.phase_name t.Cutover.from_,
                   Cutover.phase_name t.Cutover.to_,
                   n )
                 :: !fired;
               phase := t.Cutover.to_;
               pending := rest;
               fire ()
           | _ -> ()
         in
         fire ();
         n)
       0 r.Pool.outcomes);
  List.rev !fired @ List.map (fun _ -> ("?", "?", -1)) !pending

(* ------------------------------------------------------------------ *)
(* (a) lazy serving converges to the eager run: the same phases after
   the same number of judged requests, the same served output modulo
   order, bit-identical target replicas — across 1/2/8 domains.  The
   stream is 160 requests: the 13 reads the lazy run defers are
   unjudged, and 128 would end it before its second promotion.         *)

let lazy_converges_to_eager () =
  let mode_name = "epoch" in
  let n = 160 in
  let eager = run_service ~n () in
  check (mode_name ^ ": eager baseline reaches cutover") true
    (Cutover.equal_phase eager.Pool.final_phase Cutover.Cutover);
  check (mode_name ^ ": eager baseline is clean") true
    (eager.Pool.divergences = []);
  let reference = ref None in
  List.iter
    (fun domains ->
      let label = Printf.sprintf "%s, %d domain(s)" mode_name domains in
      let live = run_service ~live:true ~domains ~n () in
      check (label ^ ": lazy run reaches cutover") true
        (Cutover.equal_phase live.Pool.final_phase Cutover.Cutover);
      check (label ^ ": no divergences") true
        (live.Pool.divergences = []);
      check (label ^ ": transitions fire at eager's judged counts") true
        (judged_transitions live = judged_transitions eager);
      check (label ^ ": served traces equal eager's modulo order") true
        (served_modulo_order live = served_modulo_order eager);
      check (label ^ ": target replicas bit-identical to eager") true
        (live.Pool.replica_fingerprint <> None
        && live.Pool.replica_fingerprint = eager.Pool.replica_fingerprint);
      (match !reference with
      | None -> reference := Some (terminal_output live)
      | Some out ->
          check (label ^ ": full output identical across domain counts")
            true
            (terminal_output live = out));
      match live.Pool.migration with
      | None -> Alcotest.failf "%s: no migration summary" label
      | Some m ->
          check (label ^ ": migration completed") true
            (m.Migrate.mig_failed = None);
          check (label ^ ": fault-in and backfill both ran") true
            (m.Migrate.faulted > 0 && m.Migrate.backfilled > 0);
          check (label ^ ": some reads were deferred") true
            (m.Migrate.deferred > 0);
          check (label ^ ": every slot drained") true
            (m.Migrate.faulted + m.Migrate.backfilled
            = m.Migrate.total_slots))
    [ 1; 2; 8 ]

(* ------------------------------------------------------------------ *)
(* (b) the backfill schedule is monotone, bounded and total            *)

let watermark_props =
  QCheck.Test.make ~count:500 ~name:"watermark schedule monotone and total"
    QCheck.(
      quad (int_range 0 500) (int_range 1 64) (int_range 0 8)
        (int_range 1 64))
    (fun (total, batch, lag, rows) ->
      let wm e = Backfill.watermark_target ~total ~batch ~lag ~rows e in
      let ok = ref true in
      for e = 0 to rows - 1 do
        let w = wm e in
        if w < 0 || w > total then ok := false;
        if e > 0 && w < wm (e - 1) then ok := false;
        if
          Backfill.converged ~total ~batch ~lag ~rows e <> (w >= total)
        then ok := false
      done;
      (* a run always ends fully migrated *)
      if wm (rows - 1) <> total then ok := false;
      !ok)

(* ------------------------------------------------------------------ *)
(* (c) a backfill fault rolls the pool back to source-only serving     *)

let backfill_fault_rolls_back () =
  let label = "epoch" in
  let go domains = run_service ~live:true ~domains ~fail_backfill:(2, 5) () in
  let r = go 1 in
  check (label ^ ": run completes despite the fault") true
    (r.Pool.status = Cutover.Serving);
  check (label ^ ": never leaves shadow") true
    (Cutover.equal_phase r.Pool.final_phase Cutover.Shadow);
  check (label ^ ": everything served") true
    (r.Pool.served = 128 && r.Pool.unserved = 0);
  (match r.Pool.migration with
  | None -> Alcotest.failf "%s: no migration summary" label
  | Some m ->
      check (label ^ ": failure recorded") true
        (match m.Migrate.mig_failed with
        | Some msg -> contains ~affix:"injected backfill fault" msg
        | None -> false));
  check (label ^ ": rollback transition recorded") true
    (List.exists
       (fun (t : Cutover.transition) ->
         contains ~affix:"live migration failed" t.Cutover.reason
         && Cutover.equal_phase t.Cutover.to_ Cutover.Shadow)
       r.Pool.transitions);
  (* after the rollback the stream is served from the source
     replicas alone, unshadowed *)
  let tail =
    match
      List.filteri
        (fun i _ -> i >= r.Pool.served - 16)
        r.Pool.outcomes
    with
    | [] -> Alcotest.failf "%s: empty tail" label
    | os -> os
  in
  check (label ^ ": tail serves source-only, unshadowed") true
    (List.for_all
       (fun (o : Shadow.outcome) ->
         o.Shadow.decision = Shadow.Serve_source
         && not o.Shadow.shadowed)
       tail);
  (* the failure path is as deterministic as the happy one *)
  let r2 = go 2 in
  check (label ^ ": fault handling identical across domain counts")
    true
    (r.Pool.transitions = r2.Pool.transitions
    && terminal_output r = terminal_output r2)

(* ------------------------------------------------------------------ *)
(* (d) Zipf-skewed workload generation                                 *)

let show_batch b =
  String.concat "\n---\n" (List.map (fun (_, p) -> Ccv_abstract.Aprog.show p) b)

let zipf_skew () =
  let sample = W.Company.instance () in
  let mk ?skew () =
    G.batch ~seed:11 W.Company.schema ~sample ~n:40 ?skew ()
  in
  check "skew 0 is the uniform generator, draw for draw" true
    (show_batch (mk ()) = show_batch (mk ~skew:0. ()));
  check "skewed generation is deterministic" true
    (show_batch (mk ~skew:1.2 ()) = show_batch (mk ~skew:1.2 ()));
  check "skew changes the workload" true
    (show_batch (mk ~skew:1.2 ()) <> show_batch (mk ()));
  (* rank-weighted popularity: under heavy skew the most popular
     constant should cover a clearly larger share of the references
     than under the uniform draw *)
  let top_share progs =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (_, p) ->
        let s = Ccv_abstract.Aprog.show p in
        (* count value literals crudely: every quoted token *)
        String.split_on_char '"' s
        |> List.iteri (fun i tok ->
               if i land 1 = 1 then
                 Hashtbl.replace tbl tok
                   (1 + Option.value (Hashtbl.find_opt tbl tok) ~default:0)))
      progs;
    let total = Hashtbl.fold (fun _ c a -> c + a) tbl 0 in
    let best = Hashtbl.fold (fun _ c a -> max c a) tbl 0 in
    if total = 0 then 0. else float best /. float total
  in
  check "heavy skew concentrates key popularity" true
    (top_share (mk ~skew:2.5 ()) > top_share (mk ()))

(* ------------------------------------------------------------------ *)
(* (e) guard: live migration cannot start above shadow                 *)

let live_requires_shadow () =
  let config = { Pool.default_config with live_migration = true } in
  let cutover = { cutover_cfg with Cutover.initial = Cutover.Canary 0.25 } in
  match
    Pool.run ~config ~cutover (net_req [ interpose_op ])
      (W.Company.instance ())
      (requests ~n:8)
  with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> check "guard names the shadow phase" true
      (contains ~affix:"shadow" e)

(* ------------------------------------------------------------------ *)
(* (f) admission: navigation past the demand-closure cap is refused
   before the dual-run — the migration survives, the warning names
   the access path                                                     *)

let deep_program =
  let module Ab = Ccv_abstract in
  let av source =
    Ab.Apattern.Assoc_via
      { assoc = W.Company.div_emp; source; qual = Cond.True }
  in
  let va target =
    Ab.Apattern.Via_assoc
      { target; assoc = W.Company.div_emp; qual = Cond.True }
  in
  { Ab.Aprog.name = "DEEP-NAV";
    body =
      [ Ab.Aprog.For_each
          { query =
              [ Ab.Apattern.Self { target = W.Company.div; qual = Cond.True };
                av W.Company.div; va W.Company.emp;
                av W.Company.emp; va W.Company.div;
                av W.Company.div; va W.Company.emp;
              ];
            body = [ Ab.Aprog.Display [ Ab.Host.v "EMP.EMP-NAME" ] ];
          };
      ];
  }

let deep_navigation_refused_at_admission () =
  let reqs =
    List.map
      (fun (r : Request.t) ->
        if r.Request.id = 3 then { r with Request.aprog = deep_program }
        else r)
      (requests ~n:16)
  in
  let config =
    { Pool.default_config with
      shards = 8;
      canary_seed = 707;
      epoch_batch = 2;
      live_migration = true;
      backfill_batch = 3;
      backfill_lag = 1;
    }
  in
  match
    Pool.run ~config ~cutover:cutover_cfg (net_req [ interpose_op ])
      (W.Company.instance ())
      reqs
  with
  | Error e -> Alcotest.failf "service failed to start: %s" e
  | Ok r -> (
      let deep =
        List.find
          (fun (o : Shadow.outcome) -> o.Shadow.request.Request.id = 3)
          r.Pool.outcomes
      in
      check "deep request is refused" true deep.Shadow.refused;
      check "deep request is served by the source engine" true
        (deep.Shadow.decision = Shadow.Serve_source);
      match r.Pool.migration with
      | None -> Alcotest.fail "expected a migration summary"
      | Some m ->
          check "migration did not fail" true (m.Migrate.mig_failed = None);
          check "refusal warning carries the depth code" true
            (List.exists
               (contains ~affix:"admission refused [AD001]")
               m.Migrate.mig_warnings);
          check "refusal warning names the access path" true
            (List.exists (contains ~affix:"DIV-EMP") m.Migrate.mig_warnings))

(* ------------------------------------------------------------------ *)
(* (g) slot order: a permutation of the snapshot in load-order entity
   blocks, each owner's members contiguous, deterministic; and a full
   drain at any batch size fingerprints equal to bulk translation      *)

let start_exn ?(config = Migrate.default_config) req sdb =
  match Migrate.start ~config ~shard_id:0 req sdb with
  | Ok (m, _) -> m
  | Error (stage, reason) -> Alcotest.failf "start: %s: %s" stage reason

let plan_exn ?config req sdb =
  match Migrate.plan ?config req sdb with
  | Ok p -> p
  | Error (stage, reason) -> Alcotest.failf "plan: %s: %s" stage reason

let record_id schema (ename, row) =
  let e = Semantic.find_entity_exn schema ename in
  (Field.canon ename, List.map Value.show (Sdb.key_of e row))

let slot_order_groups_owners () =
  let sample = W.Company.scaled ~seed:42 ~n:600 in
  let schema = Sdb.schema sample in
  let req = net_req [ interpose_op ] in
  let order = Migrate.slot_order (start_exn req sample) in
  let ids = List.map (record_id schema) order in
  let snapshot_ids =
    List.concat_map
      (fun (e : Semantic.entity) ->
        List.map
          (fun row -> record_id schema (e.ename, row))
          (Sdb.rows_silent sample e.ename))
      schema.Semantic.entities
  in
  check "slots are a permutation of the snapshot's records" true
    (List.sort compare ids = List.sort compare snapshot_ids);
  let rec runs = function
    | a :: (b :: _ as rest) when a = b -> runs rest
    | a :: rest -> a :: runs rest
    | [] -> []
  in
  check "entity blocks follow Mapping.load_order" true
    (runs (List.map fst ids)
    = List.map
        (fun (e : Semantic.entity) -> Field.canon e.ename)
        (Mapping.load_order schema));
  let owner = Hashtbl.create 1024 in
  List.iter
    (fun (l : Sdb.link) ->
      Hashtbl.replace owner
        (List.map Value.show l.Sdb.rkey)
        (List.map Value.show l.Sdb.lkey))
    (Sdb.links_silent sample W.Company.div_emp);
  let div = Field.canon W.Company.div and emp = Field.canon W.Company.emp in
  let owners =
    runs
      (List.filter_map
         (fun (en, key) -> if en = emp then Hashtbl.find_opt owner key else None)
         ids)
  in
  check "each owner's members are contiguous" true
    (List.length owners = List.length (List.sort_uniq compare owners));
  check "owner groups follow their owners' slot order" true
    (owners
    = List.filter
        (fun d -> List.mem d owners)
        (List.filter_map
           (fun (en, key) -> if en = div then Some key else None)
           ids));
  check "two starts give the same order" true
    (List.map (record_id schema) (Migrate.slot_order (start_exn req sample))
    = ids)

let drain_matches_bulk () =
  let sample = W.Company.scaled ~seed:42 ~n:600 in
  List.iter
    (fun (model, name) ->
      let req =
        { Supervisor.source_schema = W.Company.schema;
          source_model = Mapping.Net;
          ops = [ interpose_op ];
          target_model = model;
        }
      in
      let bulk =
        match Supervisor.prepare_serving req sample with
        | Error (stage, reason) ->
            Alcotest.failf "%s: prepare_serving: %s: %s" name stage reason
        | Ok sv -> Migrate.fingerprint_target req sv.Supervisor.target_db
      in
      List.iter
        (fun batch ->
          let total = Migrate.total (start_exn req sample) in
          let batch = Option.value batch ~default:total in
          let m =
            start_exn ~config:{ Migrate.default_config with batch } req sample
          in
          let to_ = ref 0 in
          while !to_ < total do
            to_ := min total (!to_ + batch);
            Migrate.backfill_to m ~to_:!to_
          done;
          let label = Printf.sprintf "%s, batch %d" name batch in
          check (label ^ ": drain completed") true
            (Migrate.failed m = None && Migrate.n_done m = total);
          check (label ^ ": fingerprint equals bulk translation") true
            (Result.is_ok bulk
            && Migrate.fingerprint_target req (Migrate.engine_db m) = bulk))
        [ Some 1; Some 7; Some 48; None ])
    [ (Mapping.Net, "net"); (Mapping.Rel, "rel"); (Mapping.Hier, "hier") ]

(* ------------------------------------------------------------------ *)
(* (h) deferral: on a fresh migration a read-only scan of an undrained
   extent is served by the source alone and drains nothing; a write
   whose demand includes the whole extent still faults it in; after a
   full drain the same scan is dual-run and judged                     *)

let emp_scan =
  let module Ab = Ccv_abstract in
  { Ab.Aprog.name = "SCAN-EMP";
    body =
      [ Ab.Aprog.For_each
          { query = [ Ab.Apattern.Self { target = W.Company.emp; qual = Cond.True } ];
            body = [ Ab.Aprog.Display [ Cond.Var "EMP.EMP-NAME" ] ];
          };
      ];
  }

let age_every_emp =
  let module Ab = Ccv_abstract in
  { Ab.Aprog.name = "AGE-EVERY-EMP";
    body =
      [ Ab.Aprog.Update
          { query = [ Ab.Apattern.Self { target = W.Company.emp; qual = Cond.True } ];
            assigns =
              [ ("AGE", Cond.Add (Cond.Var "EMP.AGE", Cond.Const (Value.Int 1))) ];
          };
        Ab.Aprog.Display [ Cond.Const (Value.Str "UPDATED") ];
      ];
  }

let reads_defer_writes_fault_in () =
  let req = net_req [ interpose_op ] in
  let sample = W.Company.instance () in
  let shard ?live () =
    match Shard.create ~id:0 ?live req sample with
    | Ok sh -> sh
    | Error e -> Alcotest.failf "shard: %s" e
  in
  let exec sh ~seq aprog =
    Shard.exec sh ~phase:Cutover.Shadow ~tolerate_reordering:true
      ~canary_seed:707
      ~clock:(fun () -> 0.)
      ~epoch:0 ~seq
      { Request.id = seq; family = G.Retrieval; aprog }
  in
  let live = shard ~live:(plan_exn req sample) () in
  let m =
    match Shard.migration live with
    | Some m -> m
    | None -> Alcotest.fail "live shard has no migration"
  in
  let fingerprint () = Migrate.fingerprint_target req (Shard.target_database live) in
  let empty = fingerprint () in
  let judged (o : Shadow.outcome) =
    o.Shadow.shadowed && o.Shadow.verdict <> None && not o.Shadow.divergent
  in
  (* 1: the scan defers *)
  let o = exec live ~seq:0 emp_scan in
  let source = exec (shard ()) ~seq:0 emp_scan in
  check "deferred scan is served by the source" true
    (o.Shadow.decision = Shadow.Serve_source && not o.Shadow.refused);
  check "deferred scan is not judged" true
    ((not o.Shadow.shadowed) && o.Shadow.verdict = None);
  check "deferred scan's trace is the source's" true
    (source.Shadow.decision = Shadow.Serve_source
    && o.Shadow.served_trace <> []
    && o.Shadow.served_trace = source.Shadow.served_trace);
  check "deferral faults nothing in" true
    (Migrate.n_done m = 0 && (Migrate.summary m).Migrate.faulted = 0);
  check "deferral leaves the target replica alone" true
    (fingerprint () = empty);
  check "deferral is counted" true ((Migrate.summary m).Migrate.deferred = 1);
  check "prepare_request defers the scan" true
    (Migrate.prepare_request m emp_scan = Migrate.Deferred
    && (Migrate.summary m).Migrate.deferred = 2);
  (* 2: a write over the whole extent faults it in *)
  let emps = List.length (Sdb.rows_silent sample W.Company.emp) in
  let o = exec live ~seq:1 age_every_emp in
  check "write over an undrained extent is dual-run and judged" true
    (judged o);
  check "write faults the extent in" true
    ((Migrate.summary m).Migrate.faulted >= emps
    && Migrate.n_done m = (Migrate.summary m).Migrate.faulted);
  check "write is not deferred" true ((Migrate.summary m).Migrate.deferred = 2);
  (* 3: after a full drain the scan is judged *)
  Shard.backfill_to live ~to_:max_int;
  check "drained" true (Migrate.n_done m = Migrate.total m);
  let o = exec live ~seq:2 emp_scan in
  check "scan after the drain is dual-run and judged" true (judged o);
  check "scan after the drain is not deferred" true
    ((Migrate.summary m).Migrate.deferred = 2);
  (* 4: the count adds up across shards and reaches the report *)
  let s = Migrate.summary m in
  check "sum_summaries adds deferred" true
    ((Migrate.sum_summaries [ s; s; s ]).Migrate.deferred = 3 * s.Migrate.deferred);
  let r = run_service ~live:true () in
  match r.Pool.migration with
  | None -> Alcotest.fail "no migration summary"
  | Some total ->
      check "the pool run deferred reads" true (total.Migrate.deferred > 0);
      check "the live migration line shows deferred reads" true
        (List.exists
           (fun line ->
             contains ~affix:"live migration:" line
             && contains
                  ~affix:(Printf.sprintf ", %d read(s) deferred" total.Migrate.deferred)
                  line)
           (String.split_on_char '\n' (Pool.render r)))

(* ------------------------------------------------------------------ *)
(* (i) one plan, many shards: 4 shards attached to one plan, each fed
   its own mix of fault-ins, dual-applied writes and backfill at its
   own pace, end bit-identical to twins on private plans fed the same
   requests; every backfill block is translated exactly once, and the
   plan holds no block once every shard has drained; a shard whose
   backfill fails stalls no other                                      *)

let shared_batch = 16

(* Drain every shard one block per round until none has work left. *)
let drain_in_lockstep shards =
  let total = Migrate.total (List.hd shards) in
  let step = ref 0 in
  while
    List.exists
      (fun m -> Migrate.n_done m < total && Migrate.failed m = None)
      shards
  do
    incr step;
    List.iter (fun m -> Migrate.backfill_to m ~to_:(shared_batch * !step)) shards
  done

let shared_plan_matches_private_twins () =
  let sample = W.Company.scaled ~seed:7 ~n:400 in
  let req = net_req [ interpose_op ] in
  let config = { Migrate.default_config with batch = shared_batch } in
  let shared = plan_exn ~config req sample in
  let shard live id =
    match Shard.create ~id ~live req sample with
    | Ok sh -> sh
    | Error e -> Alcotest.failf "shard %d: %s" id e
  in
  let nshards = 4 in
  let privates = List.init nshards (fun _ -> plan_exn ~config req sample) in
  let pairs = List.mapi (fun s p -> (shard shared s, shard p s)) privates in
  let reqs =
    Request.stream ~seed:99 W.Company.schema ~sample ~n:240
      ~mix:[ (2, G.Lookup); (2, G.Insertion); (1, G.Deletion) ]
      ~skew:1.1 ()
  in
  let exec sh ~seq r =
    Shard.exec sh ~phase:Cutover.Shadow ~tolerate_reordering:true
      ~canary_seed:7
      ~clock:(fun () -> 0.)
      ~epoch:0 ~seq r
  in
  let same_trace = ref true in
  (* shard [s] drains [s + 1] blocks per round, then serves its next 5
     requests: the shards reach each block at different times *)
  List.iteri
    (fun i chunk ->
      List.iteri
        (fun s (sh, twin) ->
          let to_ = shared_batch * (i + 1) * (s + 1) in
          Shard.backfill_to sh ~to_;
          Shard.backfill_to twin ~to_;
          List.iteri
            (fun k r ->
              if Request.shard_of r ~nshards = s then begin
                let o = exec sh ~seq:k r and o' = exec twin ~seq:k r in
                if o.Shadow.served_trace <> o'.Shadow.served_trace then
                  same_trace := false
              end)
            chunk)
        pairs)
    (List.init 12 (fun i -> List.filteri (fun j _ -> j / 20 = i) reqs));
  List.iter
    (fun (sh, twin) ->
      Shard.backfill_to sh ~to_:max_int;
      Shard.backfill_to twin ~to_:max_int)
    pairs;
  let migration sh =
    match Shard.migration sh with
    | Some m -> m
    | None -> Alcotest.fail "live shard has no migration"
  in
  let total = Migrate.total (migration (fst (List.hd pairs))) in
  check "served traces equal the private twins'" true !same_trace;
  List.iteri
    (fun s (sh, twin) ->
      let m = migration sh and m' = migration twin in
      let label = Printf.sprintf "shard %d" s in
      check (label ^ ": drained, no failure") true
        (Migrate.failed m = None && Migrate.n_done m = total);
      check (label ^ ": faulted in and backfilled") true
        ((Migrate.summary m).Migrate.faulted > 0
        && (Migrate.summary m).Migrate.backfilled > 0);
      check (label ^ ": summary equals the private twin's") true
        (Migrate.summary m = Migrate.summary m');
      check (label ^ ": target fingerprint equals the private twin's") true
        (Migrate.fingerprint_target req (Shard.target_database sh)
         = Migrate.fingerprint_target req (Shard.target_database twin)))
    pairs;
  let blocks = (total + shared_batch - 1) / shared_batch in
  check "each block translated exactly once" true
    (Migrate.blocks_translated shared = blocks);
  check "private plans translate each block once per shard" true
    (List.for_all (fun p -> Migrate.blocks_translated p = blocks) privates);
  check "no block held after every shard drained" true
    (Migrate.blocks_held shared = 0)

let failed_shard_stalls_no_other () =
  let sample = W.Company.scaled ~seed:7 ~n:400 in
  let req = net_req [ interpose_op ] in
  let config =
    { Migrate.default_config with
      batch = shared_batch;
      fail_at_slot = Some (1, 5 * shared_batch);
    }
  in
  let p = plan_exn ~config req sample in
  let shards = List.init 4 (fun s -> Migrate.attach p ~shard_id:s) in
  let total = Migrate.total (List.hd shards) in
  let failing = List.nth shards 1 in
  (* shard 1 stops short of its fault; the others drain to the end *)
  Migrate.backfill_to failing ~to_:(5 * shared_batch);
  drain_in_lockstep (List.filter (fun m -> m != failing) shards);
  List.iteri
    (fun s m ->
      if s <> 1 then
        check (Printf.sprintf "shard %d drained" s) true
          (Migrate.failed m = None && Migrate.n_done m = total))
    shards;
  check "blocks shard 1 has not applied are held for it" true
    (Migrate.blocks_held p > 0);
  Migrate.backfill_to failing ~to_:max_int;
  check "shard 1 failed where injected" true
    (Migrate.failed failing <> None && Migrate.n_done failing = 5 * shared_batch);
  check "each block translated once" true
    (Migrate.blocks_translated p = (total + shared_batch - 1) / shared_batch);
  check "the failed shard released its blocks" true (Migrate.blocks_held p = 0)

(* Distinct float keys stay distinct: PART 1.0 and 1.0000001 print
   alike under [%g], which once merged them into one record. *)
let float_keys_drain_like_bulk () =
  let schema =
    Semantic.make
      ~constraints:[ Semantic.Total_right "HOLDS" ]
      [ Semantic.entity "BIN"
          [ Field.make "BIN-NO" Value.Tint; Field.make "BIN-LOC" Value.Tstr ]
          ~key:[ "BIN-NO" ];
        Semantic.entity "PART"
          [ Field.make "PART-NO" Value.Tfloat; Field.make "WEIGHT" Value.Tint ]
          ~key:[ "PART-NO" ];
      ]
      [ Semantic.assoc "HOLDS" ~left:"BIN" ~right:"PART" () ]
  in
  let bin n loc = Row.of_list [ ("BIN-NO", Value.Int n); ("BIN-LOC", Value.Str loc) ]
  and part x w = Row.of_list [ ("PART-NO", Value.Float x); ("WEIGHT", Value.Int w) ] in
  let db =
    List.fold_left
      (fun db (l, x, w) ->
        Sdb.link_exn
          (Sdb.insert_entity_exn db "PART" (part x w))
          "HOLDS" ~left:[ Value.Int l ] ~right:[ Value.Float x ])
      (Sdb.insert_entity_exn
         (Sdb.insert_entity_exn (Sdb.create schema) "BIN" (bin 1 "NORTH"))
         "BIN" (bin 2 "SOUTH"))
      [ (1, 1.0, 10); (2, 1.0000001, 15); (2, 2.5, 20) ]
  in
  List.iter
    (fun (model, name) ->
      let req =
        { Supervisor.source_schema = schema;
          source_model = Mapping.Net;
          ops =
            [ Schema_change.Rename_field
                { entity = "PART"; from_ = "WEIGHT"; to_ = "MASS" } ];
          target_model = model;
        }
      in
      let bulk =
        match Supervisor.prepare_serving req db with
        | Error (stage, reason) ->
            Alcotest.failf "%s: prepare_serving: %s: %s" name stage reason
        | Ok sv -> Migrate.fingerprint_target req sv.Supervisor.target_db
      in
      List.iter
        (fun batch ->
          let m =
            start_exn ~config:{ Migrate.default_config with batch } req db
          in
          Migrate.backfill_to m ~to_:max_int;
          let label = Printf.sprintf "%s, batch %d" name batch in
          check (label ^ ": every record drained") true
            (Migrate.failed m = None && Migrate.n_done m = 5);
          check (label ^ ": fingerprint equals bulk translation") true
            (Result.is_ok bulk
            && Migrate.fingerprint_target req (Migrate.engine_db m) = bulk))
        [ 1; 2; 5 ])
    [ (Mapping.Net, "net"); (Mapping.Rel, "rel"); (Mapping.Hier, "hier") ]

(* ------------------------------------------------------------------ *)
(* (j) [Company.scaled] builds its extents in bulk; the instance must
   be the one the per-record fold (kept here as the reference) built:
   the same rows and links in the same order                          *)

let scaled_by_fold ~seed ~n =
  let module C = W.Company in
  let rng = Prng.create ~seed in
  let n_div = max 2 (n / 10) in
  let depts = [ "SALES"; "DESIGN"; "LABS" ] in
  let db = ref (Sdb.create C.schema) in
  for i = 0 to n_div - 1 do
    db :=
      Sdb.insert_entity_exn !db C.div
        (Row.of_list
           [ ("DIV-NAME", Value.Str (Printf.sprintf "DIV%03d" i));
             ("DIV-LOC", Value.Str (Prng.word rng 7));
           ])
  done;
  for i = 0 to n - 1 do
    let name = Printf.sprintf "E%05d" i in
    let division = Printf.sprintf "DIV%03d" (Prng.int rng n_div) in
    db :=
      Sdb.insert_entity_exn !db C.emp
        (Row.of_list
           [ ("EMP-NAME", Value.Str name);
             ("DEPT-NAME", Value.Str (Prng.pick rng depts));
             ("AGE", Value.Int (Prng.int_in rng 20 65));
           ]);
    db :=
      Sdb.link_exn !db C.div_emp ~left:[ Value.Str division ]
        ~right:[ Value.Str name ]
  done;
  !db

let scaled_equals_fold () =
  List.iter
    (fun n ->
      let bulk = W.Company.scaled ~seed:42 ~n
      and fold = scaled_by_fold ~seed:42 ~n in
      let label = Printf.sprintf "n = %d" n in
      List.iter
        (fun e ->
          check
            (Printf.sprintf "%s: %s rows in the same order" label e)
            true
            (List.equal Row.equal (Sdb.rows_silent bulk e)
               (Sdb.rows_silent fold e)))
        [ W.Company.div; W.Company.emp ];
      check (label ^ ": links in the same order") true
        (Sdb.links_silent bulk W.Company.div_emp
        = Sdb.links_silent fold W.Company.div_emp);
      check (label ^ ": contents equal") true (Sdb.equal_contents bulk fold))
    [ 300; 1500 ]

let () =
  Alcotest.run "migrate"
    [ ( "live migration",
        [ Alcotest.test_case "lazy converges to eager" `Slow
            lazy_converges_to_eager;
          QCheck_alcotest.to_alcotest watermark_props;
          Alcotest.test_case "backfill fault rolls back" `Slow
            backfill_fault_rolls_back;
          Alcotest.test_case "zipf skew" `Quick zipf_skew;
          Alcotest.test_case "live requires shadow" `Quick
            live_requires_shadow;
          Alcotest.test_case "deep navigation refused at admission" `Quick
            deep_navigation_refused_at_admission;
          Alcotest.test_case "slot order groups owners" `Quick
            slot_order_groups_owners;
          Alcotest.test_case "drain matches bulk translation" `Slow
            drain_matches_bulk;
          Alcotest.test_case "reads defer, writes fault in" `Quick
            reads_defer_writes_fault_in;
          Alcotest.test_case "shared plan matches private twins" `Quick
            shared_plan_matches_private_twins;
          Alcotest.test_case "a failed shard stalls no other" `Quick
            failed_shard_stalls_no_other;
          Alcotest.test_case "float keys drain like bulk translation" `Quick
            float_keys_drain_like_bulk;
          Alcotest.test_case "Company.scaled equals the per-record fold"
            `Slow scaled_equals_fold;
        ] );
    ]
