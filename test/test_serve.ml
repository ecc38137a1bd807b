(* The phased-coexistence service: a clean conversion must walk
   Shadow -> Canary -> Cutover with zero divergences and
   domain-count-independent output; an injected extension restriction
   (the §5.2 example) must trip the divergence detector and roll the
   canary back; and everything must be reproducible from the seed. *)

open Ccv_common
open Ccv_transform
open Ccv_convert
open Ccv_serve
module W = Ccv_workload

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

let restrict_op =
  (* §5.2: instances dropped during conversion — CLARK (45) and
     EVANS (52) disappear from the target, so programs that touch them
     diverge while the conversion itself succeeds with a warning. *)
  Schema_change.Restrict_extension
    { entity = W.Company.emp;
      qual = Cond.Cmp (Cond.Ge, Cond.Field "AGE", Cond.Const (Value.Int 45));
    }

let net_req ops =
  { Supervisor.source_schema = W.Company.schema;
    source_model = Mapping.Net;
    ops;
    target_model = Mapping.Net;
  }

let requests ~seed ~n =
  Request.stream ~seed W.Company.schema ~sample:(W.Company.instance ()) ~n ()

let run_service ?(domains = 1) ?(shards = 4) ?(use_plan_cache = true)
    ?(epoch_batch = 8) ~cutover ops reqs =
  let config =
    { Pool.default_config with
      domains; shards; canary_seed = 7; use_plan_cache; epoch_batch;
    }
  in
  match Pool.run ~config ~cutover (net_req ops) (W.Company.instance ()) reqs with
  | Ok r -> r
  | Error e -> Alcotest.failf "service failed to start: %s" e

let terminal_output (r : Pool.report) =
  List.map
    (fun (o : Shadow.outcome) ->
      (o.Shadow.request.Request.id, Io_trace.terminal_lines o.Shadow.served_trace))
    r.Pool.outcomes

let promoting_cutover =
  { Cutover.canary_fraction = 0.3;
    window = 16;
    min_observations = 6;
    max_divergence_rate = 0.2;
    promote_after = 10;
    initial = Cutover.Shadow;
  }

(* ------------------------------------------------------------------ *)
(* (a) clean conversion reaches Cutover, identically under 1 and 4
   domains                                                             *)

(* Rows of 2 requests per shard: a phase is judged only on rows planned
   after it began (the plan runs 2 rows ahead), so 48 requests in rows
   of 8 would end before Canary served anything. *)
let clean_cutover () =
  let reqs = requests ~seed:101 ~n:48 in
  let run domains =
    run_service ~domains ~epoch_batch:2 ~cutover:promoting_cutover
      [ interpose_op ] reqs
  in
  let r1 = run 1 and r4 = run 4 in
  List.iter
    (fun (label, (r : Pool.report)) ->
      check (label ^ ": reached cutover") true
        (Cutover.equal_phase r.Pool.final_phase Cutover.Cutover);
      check (label ^ ": still serving") true (r.Pool.status = Cutover.Serving);
      check (label ^ ": zero divergences") true
        (Metrics.total_divergent r.Pool.metrics = 0
        && r.Pool.divergences = []);
      check (label ^ ": everything served") true
        (r.Pool.served = 48 && r.Pool.unserved = 0))
    [ ("1 domain", r1); ("4 domains", r4) ];
  check "identical terminal output under 1 and 4 domains" true
    (terminal_output r1 = terminal_output r4);
  check "identical transitions under 1 and 4 domains" true
    (r1.Pool.transitions = r4.Pool.transitions);
  (* walked the whole ladder: Shadow -> Canary -> Cutover *)
  check "two promotions" true
    (List.length r1.Pool.transitions = 2
    && List.for_all
         (fun (t : Cutover.transition) ->
           contains ~affix:"promoted" t.Cutover.reason)
         r1.Pool.transitions)

(* ------------------------------------------------------------------ *)
(* (b) injected divergence rolls the canary back                       *)

let rollback_cutover =
  { Cutover.canary_fraction = 0.3;
    window = 8;
    min_observations = 4;
    max_divergence_rate = 0.25;
    promote_after = 1000;
    initial = Cutover.Canary 0.3;
  }

let injected_divergence_rolls_back () =
  let reqs = requests ~seed:303 ~n:64 in
  let r = run_service ~domains:2 ~cutover:rollback_cutover [ restrict_op ] reqs in
  check "divergences detected" true (r.Pool.divergences <> []);
  let rollback =
    List.find_opt
      (fun (t : Cutover.transition) ->
        (match t.Cutover.from_ with Cutover.Canary _ -> true | _ -> false)
        && Cutover.equal_phase t.Cutover.to_ Cutover.Shadow)
      r.Pool.transitions
  in
  check "rolled back from canary to shadow" true (rollback <> None);
  (match rollback with
  | Some t ->
      check "rollback reason names the rate" true
        (contains ~affix:"rollback" t.Cutover.reason)
  | None -> ());
  (* the log names the first differing event of the §5.2 restriction *)
  let d = List.hd r.Pool.divergences in
  check "divergence names the first differing event" true
    (contains ~affix:"expected" d.Pool.detail
    && contains ~affix:"event" d.Pool.detail)

(* ------------------------------------------------------------------ *)
(* (c) seeded determinism across repeats and domain counts             *)

let deterministic_across_repeats () =
  let go domains =
    let reqs = requests ~seed:404 ~n:56 in
    run_service ~domains ~shards:5 ~cutover:rollback_cutover [ restrict_op ]
      reqs
  in
  let a = go 1 and b = go 4 and c = go 4 in
  let fingerprint (r : Pool.report) =
    ( r.Pool.transitions,
      List.length r.Pool.divergences,
      r.Pool.served,
      Cutover.phase_name r.Pool.final_phase,
      terminal_output r )
  in
  check "repeat with same seed is identical" true (fingerprint b = fingerprint c);
  check "domain count does not change behaviour" true
    (fingerprint a = fingerprint b)

(* The persistent pool's invariant, checked on the full report: the
   same stream under 1, 2 and 8 domains produces identical outcomes,
   transitions and divergence logs, field for field. *)
let deterministic_across_domain_counts () =
  let go domains =
    let reqs = requests ~seed:707 ~n:64 in
    run_service ~domains ~shards:8 ~cutover:rollback_cutover [ restrict_op ]
      reqs
  in
  let a = go 1 and b = go 2 and c = go 8 in
  let outcome_fp (o : Shadow.outcome) =
    ( o.Shadow.request.Request.id,
      o.Shadow.phase,
      o.Shadow.shard,
      o.Shadow.shadowed,
      o.Shadow.divergent,
      Io_trace.terminal_lines o.Shadow.served_trace )
  in
  let fp (r : Pool.report) =
    ( List.map outcome_fp r.Pool.outcomes,
      r.Pool.transitions,
      r.Pool.divergences )
  in
  check "1 domain = 2 domains" true (fp a = fp b);
  check "1 domain = 8 domains" true (fp a = fp c);
  let cores = Domain.recommended_domain_count () in
  check "report records the domain count used" true
    (a.Pool.domains = 1
    && b.Pool.domains = min 2 cores
    && c.Pool.domains = min 8 cores);
  check "per-worker idle is reported per slot" true
    (List.for_all
       (fun (r : Pool.report) ->
         List.length r.Pool.worker_idle_s = r.Pool.domains
         && Float.abs
              (List.fold_left ( +. ) 0. r.Pool.worker_idle_s
              -. r.Pool.pool_idle_s)
            < 1e-9)
       [ a; b; c ])

(* Epoch mode's determinism mechanism is the canonical consumption
   order: outcomes and the divergence log must come out sorted by
   (epoch, shard, seq), whatever the physical arrival interleaving
   was. *)
let epoch_log_in_canonical_order () =
  let reqs = requests ~seed:303 ~n:64 in
  let r =
    run_service ~domains:4 ~shards:8 ~epoch_batch:4
      ~cutover:rollback_cutover [ restrict_op ] reqs
  in
  let okey (o : Shadow.outcome) = (o.Shadow.epoch, o.Shadow.shard, o.Shadow.seq) in
  let keys = List.map okey r.Pool.outcomes in
  check "outcomes in (epoch, shard, seq) order" true
    (keys = List.sort compare keys);
  check "divergences detected" true (r.Pool.divergences <> []);
  let dkeys =
    List.map
      (fun (d : Pool.divergence) ->
        (d.Pool.div_epoch, d.Pool.div_shard, d.Pool.div_seq))
      r.Pool.divergences
  in
  check "divergence log in (epoch, shard, seq) order" true
    (dkeys = List.sort compare dkeys);
  (* the log's keys agree with the outcomes they were cut from *)
  check "divergence keys exist among divergent outcomes" true
    (List.for_all
       (fun k ->
         List.exists
           (fun (o : Shadow.outcome) -> o.Shadow.divergent && okey o = k)
           r.Pool.outcomes)
       dkeys)

(* ------------------------------------------------------------------ *)
(* (d') the work-stealing scheduler: schedule-neutral by construction  *)

(* Concentrate ~half the stream on shard 0 by remapping ids: index [i]
   becomes [i * shards] (shard 0) when even, [i * shards + (i mod
   shards)] when odd — unique, strictly increasing, shard-skewed.
   Routing is a pure function of the id, so this is how a hot shard
   looks to the pool. *)
let skew_to_shard0 ~shards reqs =
  List.mapi
    (fun i (r : Request.t) ->
      let id = if i mod 2 = 0 then i * shards else (i * shards) + (i mod shards) in
      { r with Request.id })
    reqs

let steal_report_shape () =
  let reqs = requests ~seed:808 ~n:48 in
  let shards = 6 and epoch_batch = 4 in
  let go domains =
    run_service ~domains ~shards ~epoch_batch ~cutover:promoting_cutover
      [ interpose_op ] reqs
  in
  let stealing = go 2 and single = go 1 in
  let rows_run (r : Pool.report) =
    match r.Pool.steal_stats with
    | Some slots -> List.fold_left (fun acc s -> acc + s.Pool.rows_run) 0 slots
    | None -> 0
  in
  check "steal mode reports per-slot stats" true
    (match stealing.Pool.steal_stats with
    | Some slots ->
        List.length slots = stealing.Pool.domains && rows_run stealing > 0
    | None -> false);
  check "steal-wait reported per slot" true
    (List.length stealing.Pool.steal_wait_s = stealing.Pool.domains);
  (* every epoch row runs exactly once: one claim per row, whichever
     slot claims it *)
  let slice_len = Array.make shards 0 in
  List.iter
    (fun r ->
      let s = Request.shard_of r ~nshards:shards in
      slice_len.(s) <- slice_len.(s) + 1)
    reqs;
  let expected_rows =
    Array.fold_left
      (fun acc n -> acc + ((n + epoch_batch - 1) / epoch_batch))
      0 slice_len
  in
  check "stealing runs every row exactly once" true
    (rows_run stealing = expected_rows);
  check "scheduling is invisible in the served output" true
    (terminal_output stealing = terminal_output single
    && stealing.Pool.transitions = single.Pool.transitions)

(* Serving-time index advice (the §5.3 feedback loop): a program
   qualifying EMP by a field another entity stores degenerates to an
   extent scan (the same shape the LN003 lint flags), and once the
   extent clears the advisor's hot-scan floor the report must name the
   concrete [Sdb.ensure_index] call with the observed cardinality;
   without statistics the list stays empty. *)
let serving_index_advice () =
  let sample = W.Company.scaled ~seed:42 ~n:120 in
  let hot_scan =
    { Ccv_abstract.Aprog.name = "HOT-SCAN";
      body =
        [ Ccv_abstract.Aprog.For_each
            { query =
                [ Ccv_abstract.Apattern.Self
                    { target = W.Company.emp;
                      qual =
                        Cond.Cmp
                          ( Cond.Eq, Cond.Field "DIV-NAME",
                            Cond.Const (Value.Str "DIV001") );
                    };
                ];
              body = [ Ccv_abstract.Aprog.Display [ Cond.Var "EMP.EMP-NAME" ] ];
            };
        ];
    }
  in
  let reqs =
    List.mapi
      (fun i (r : Request.t) -> { r with Request.id = i })
      ({ Request.id = 0; family = W.Generator.Retrieval; aprog = hot_scan }
      :: Request.stream ~seed:303 W.Company.schema ~sample ~n:39 ())
  in
  let go cost_based_plans =
    let config =
      { Pool.default_config with
        domains = 1; shards = 2; canary_seed = 7; cost_based_plans;
      }
    in
    match
      Pool.run ~config ~cutover:promoting_cutover (net_req [ interpose_op ])
        sample reqs
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "advice service failed: %s" e
  in
  let costed = go true and heuristic = go false in
  check "no statistics, no advice" true (heuristic.Pool.index_advice = []);
  check "hot scanned equalities are advised" true
    (costed.Pool.index_advice <> []);
  check "advice names the concrete declaration" true
    (List.for_all
       (fun m -> contains ~affix:"Sdb.ensure_index" m)
       costed.Pool.index_advice);
  check "advice carries the observed extent size" true
    (List.for_all
       (fun m -> contains ~affix:"stored instance" m)
       costed.Pool.index_advice);
  check "advice names the scanned equality" true
    (List.exists
       (fun m -> contains ~affix:"EMP.DIV-NAME" m)
       costed.Pool.index_advice);
  check "the crafted scan serves like any other request" true
    (List.length costed.Pool.outcomes = List.length reqs
    && terminal_output costed = terminal_output heuristic)

(* Everything a schedule could perturb: each outcome with its logical
   key and served output, plus transitions, divergences and totals. *)
let full_fingerprint (r : Pool.report) =
  ( List.map
      (fun (o : Shadow.outcome) ->
        ( o.Shadow.request.Request.id,
          o.Shadow.phase,
          o.Shadow.shard,
          o.Shadow.epoch,
          o.Shadow.seq,
          o.Shadow.shadowed,
          o.Shadow.divergent,
          Io_trace.terminal_lines o.Shadow.served_trace ))
      r.Pool.outcomes,
    r.Pool.transitions,
    r.Pool.divergences,
    r.Pool.served,
    Cutover.phase_name r.Pool.final_phase )

(* The scheduler's invariant: whatever stream the generator deals —
   uniform or concentrated on one hot shard — 1, 2 and 8 domains yield
   the same outcomes, transitions and divergence log, field for
   field. *)
let domain_count_fingerprint_prop =
  QCheck.Test.make
    ~name:"fingerprint independent of domain count, uniform and skewed"
    ~count:8
    QCheck.(pair (int_range 1 10_000) bool)
    (fun (seed, skewed) ->
      let shards = 5 in
      let reqs =
        let r = requests ~seed ~n:32 in
        if skewed then skew_to_shard0 ~shards r else r
      in
      let go domains =
        full_fingerprint
          (run_service ~domains ~shards ~epoch_batch:4
             ~cutover:rollback_cutover [ restrict_op ] reqs)
      in
      let reference = go 1 in
      go 2 = reference && go 8 = reference)

(* Serving must terminate on every schedule.  A worker that left as
   soon as its home shards were done once let the coordinator's
   quiescence sweep fire while the coordinator's own rows still waited
   on a phase cell, and [Pool.run] raised instead of serving.  The race
   is probabilistic, so sweep many seeds of a skewed stream that rolls
   the canary back and aborts. *)
let termination_sweep () =
  let shards = 5 in
  let failures = ref [] in
  for seed = 1 to 600 do
    let reqs = skew_to_shard0 ~shards (requests ~seed ~n:32) in
    let go domains =
      let config =
        { Pool.default_config with
          domains; shards; canary_seed = 7; epoch_batch = 4;
        }
      in
      match
        Pool.run ~config ~cutover:rollback_cutover (net_req [ restrict_op ])
          (W.Company.instance ()) reqs
      with
      | Ok r -> Ok (full_fingerprint r)
      | Error e -> Error e
      | exception ex -> Error (Printexc.to_string ex)
    in
    let reference = go 1 in
    List.iter
      (fun domains ->
        let r = go domains in
        if Result.is_error r || r <> reference then
          failures := (seed, domains) :: !failures)
      [ 2; 8 ]
  done;
  if !failures <> [] then
    Alcotest.failf "runs failed or diverged at (seed, domains): %s"
      (String.concat ", "
         (List.rev_map (fun (s, d) -> Printf.sprintf "(%d, %d)" s d) !failures))

(* More domains than cores: the pool, the steal queue and the report
   share one slot count, [min domains shards cores], whatever was asked
   for — and the served output still equals the 1-domain run. *)
let more_domains_than_cores () =
  let cores = Domain.recommended_domain_count () in
  let domains = (2 * cores) + 1 in
  let shards = domains in
  let reqs = requests ~seed:515 ~n:(8 * shards) in
  let go domains =
    run_service ~domains ~shards ~epoch_batch:4 ~cutover:rollback_cutover
      [ restrict_op ] reqs
  in
  let one = go 1 and many = go domains in
  let n = many.Pool.domains in
  check "one slot per core" true (n = cores);
  check "idle reported per slot" true (List.length many.Pool.worker_idle_s = n);
  check "steal-wait reported per slot" true
    (List.length many.Pool.steal_wait_s = n);
  check "scheduler stats reported per slot" true
    (match many.Pool.steal_stats with
    | Some slots -> List.length slots = n
    | None -> false);
  check "outcomes equal the 1-domain run" true
    (full_fingerprint many = full_fingerprint one)

(* ------------------------------------------------------------------ *)
(* (e) worker crashes surface as Error, not a hang or a corrupt report *)

let worker_fault_propagates () =
  let reqs = requests ~seed:606 ~n:40 in
  List.iter
    (fun (domains, epoch_batch) ->
      let config =
        { Pool.default_config with
          domains; shards = 4; canary_seed = 7; fail_request = Some 17;
          epoch_batch;
        }
      in
      match
        Pool.run ~config ~cutover:promoting_cutover (net_req [ interpose_op ])
          (W.Company.instance ()) reqs
      with
      | Ok _ ->
          Alcotest.failf
            "batch %d, %d domains: injected fault did not surface" epoch_batch
            domains
      | Error e ->
          let label =
            Printf.sprintf "batch %d, %d domains" epoch_batch domains
          in
          check (label ^ ": error names the worker failure") true
            (contains ~affix:"worker failure" e);
          check (label ^ ": error names the failing request") true
            (contains ~affix:"request 17" e))
    [ (1, 16); (2, 16); (4, 16); (2, 8) ]

(* A cutover config the controller cannot hold is a configuration
   error, reported like any other start-up failure rather than raised
   out of the pool. *)
let start_with cutover =
  let reqs = requests ~seed:101 ~n:8 in
  match
    Pool.run ~cutover (net_req [ interpose_op ]) (W.Company.instance ()) reqs
  with
  | Ok _ -> Ok ()
  | Error e -> Error e
  | exception ex ->
      Alcotest.failf "cutover config raised %s instead of Error"
        (Printexc.to_string ex)

let zero_window_is_error () =
  match start_with { promoting_cutover with Cutover.window = 0 } with
  | Ok () -> Alcotest.fail "window 0 was accepted"
  | Error e -> check "error names the window" true (contains ~affix:"window" e)

(* Configs under which the guard can never act are rejected up front:
   a judging threshold the window never reaches, or a canary fraction
   that is not a fraction.  The controller-pinning values the benchmark
   uses (a rate above 1, [max_int] promotion) stay legal. *)
let guard_disabling_cutover_is_error () =
  List.iter
    (fun (label, affix, cutover) ->
      (match start_with cutover with
      | Ok () -> Alcotest.failf "%s was accepted" label
      | Error e ->
          check (label ^ ": error names the field") true (contains ~affix e));
      check (label ^ ": Cutover.create refuses it") true
        (match Cutover.create cutover with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ ( "min_observations above the window",
        "min_observations",
        { promoting_cutover with Cutover.window = 4; min_observations = 100 } );
      ( "canary fraction 1.5",
        "canary",
        { promoting_cutover with Cutover.canary_fraction = 1.5 } );
      ( "negative canary fraction",
        "canary",
        { promoting_cutover with Cutover.canary_fraction = -0.1 } );
      ( "initial canary 1.5",
        "canary",
        { promoting_cutover with Cutover.initial = Cutover.Canary 1.5 } );
    ];
  check "pinned controller (rate 2.0, promote_after max_int) is accepted" true
    (start_with
       { promoting_cutover with
         Cutover.max_divergence_rate = 2.0;
         promote_after = max_int;
       }
    = Ok ());
  check "min_observations = window is accepted" true
    (Cutover.validate
       { promoting_cutover with Cutover.window = 6; min_observations = 6 }
    = Ok ())

(* ------------------------------------------------------------------ *)
(* (d) the per-shard plan cache: same served behaviour with and
   without it, and a steady-state stream (few distinct programs) is
   served almost entirely from cache                                   *)

let plan_cache_transparent () =
  let sample = W.Company.instance () in
  let reqs =
    Request.stream ~seed:505 W.Company.schema ~sample ~n:96 ~distinct:12 ()
  in
  let cached =
    run_service ~domains:2 ~shards:4 ~cutover:promoting_cutover
      [ interpose_op ] reqs
  in
  let uncached =
    run_service ~domains:2 ~shards:4 ~use_plan_cache:false
      ~cutover:promoting_cutover [ interpose_op ] reqs
  in
  check "same served output with and without the cache" true
    (terminal_output cached = terminal_output uncached);
  check "same transitions with and without the cache" true
    (cached.Pool.transitions = uncached.Pool.transitions);
  let s = cached.Pool.plan_stats in
  let module PC = Ccv_plan.Plan_cache in
  (* 12 distinct programs x 4 shards: at most 48 compilations for 96
     shadowed requests, everything else served from cache *)
  check "every lookup beyond first-seen hits" true
    (s.PC.hits + s.PC.misses = 96 && s.PC.misses <= 48);
  check "steady state hit rate above one half" true (PC.hit_rate s > 0.5);
  let z = uncached.Pool.plan_stats in
  check "disabled cache reports zero stats" true
    (z.PC.hits = 0 && z.PC.misses = 0)

(* ------------------------------------------------------------------ *)
(* Verdicts from rows planned under an earlier phase never reach the
   controller: on the `convertc serve --requests 96` interpose stream
   (rows of 16 requests per shard, so every row is planned before any
   promotion can take effect) no promotion leaves a phase that served
   nothing.  Served under the old rule, this stream walked Shadow ->
   Canary -> Cutover -> Shadow with all 96 requests served in Shadow. *)

let no_promotion_from_an_unserved_phase () =
  let reqs = requests ~seed:0xC0FFEE ~n:96 in
  let run domains =
    run_service ~domains ~shards:4 ~epoch_batch:16
      ~cutover:Cutover.default_config [ interpose_op ] reqs
  in
  let served_before (r : Pool.report) (t : Cutover.transition) =
    let rec go = function
      | [] -> false
      | (o : Shadow.outcome) :: rest ->
          o.Shadow.phase = Cutover.phase_name t.Cutover.from_
          || (o.Shadow.request.Request.id <> t.Cutover.at_request && go rest)
    in
    go r.Pool.outcomes
  in
  List.iter
    (fun domains ->
      let r = run domains in
      let label = Printf.sprintf "%d domain(s)" domains in
      check (label ^ ": the stream promotes") true (r.Pool.transitions <> []);
      List.iter
        (fun (t : Cutover.transition) ->
          if contains ~affix:"promoted" t.Cutover.reason then
            check
              (Printf.sprintf "%s: %s served a request before leaving" label
                 (Cutover.phase_name t.Cutover.from_))
              true (served_before r t))
        r.Pool.transitions;
      check (label ^ ": no rollback") true
        (List.for_all
           (fun (t : Cutover.transition) ->
             contains ~affix:"promoted" t.Cutover.reason)
           r.Pool.transitions))
    [ 1; 2 ]

(* The controller side of the same rule: a clean verdict served under
   an earlier phase is dropped, so it never promotes the phase now
   serving; a divergent one still counts toward rollback, so a
   promotion does not wipe out evidence that the conversion diverges. *)
let stale_verdicts_roll_back_never_promote () =
  let canary = Cutover.Canary promoting_cutover.Cutover.canary_fraction in
  let ctl = Cutover.create { promoting_cutover with initial = canary } in
  let id = ref 0 in
  let feed ~divergent n =
    for _ = 1 to n do
      incr id;
      Cutover.observe ~served_in:Cutover.Shadow ctl ~request_id:!id ~epoch:0
        ~divergent
    done
  in
  feed ~divergent:false (2 * promoting_cutover.Cutover.promote_after);
  check "stale clean verdicts are dropped" true
    (Cutover.observations ctl = 0 && Cutover.transitions ctl = []);
  feed ~divergent:true promoting_cutover.Cutover.min_observations;
  match Cutover.transitions ctl with
  | [ t ] ->
      check "stale divergent verdicts roll the canary back" true
        (Cutover.equal_phase t.Cutover.from_ canary
        && Cutover.equal_phase t.Cutover.to_ Cutover.Shadow
        && contains ~affix:"rollback" t.Cutover.reason)
  | ts -> Alcotest.failf "expected one rollback, got %d transitions"
            (List.length ts)

let () =
  Alcotest.run "serve"
    [ ( "phases",
        [ Alcotest.test_case "clean conversion reaches cutover" `Quick
            clean_cutover;
          Alcotest.test_case "guard-disabling cutover configs are Errors"
            `Quick guard_disabling_cutover_is_error;
          Alcotest.test_case "injected divergence rolls back the canary" `Quick
            injected_divergence_rolls_back;
          Alcotest.test_case "deterministic given the seed" `Quick
            deterministic_across_repeats;
          Alcotest.test_case "identical reports under 1, 2 and 8 domains"
            `Quick deterministic_across_domain_counts;
          Alcotest.test_case "epoch log in canonical order" `Quick
            epoch_log_in_canonical_order;
          Alcotest.test_case "worker fault propagates as Error" `Quick
            worker_fault_propagates;
          Alcotest.test_case "plan cache is behaviourally transparent" `Quick
            plan_cache_transparent;
          Alcotest.test_case "steal scheduler reports per-slot activity" `Quick
            steal_report_shape;
          Alcotest.test_case "serving-time index advice under live stats"
            `Quick serving_index_advice;
          Alcotest.test_case "skewed aborting streams terminate (600 seeds)"
            `Quick termination_sweep;
          Alcotest.test_case "more domains than cores share one slot count"
            `Quick more_domains_than_cores;
          Alcotest.test_case "zero cutover window is an Error" `Quick
            zero_window_is_error;
          Alcotest.test_case "no promotion from a phase that served nothing"
            `Quick no_promotion_from_an_unserved_phase;
          Alcotest.test_case "stale verdicts roll back, never promote" `Quick
            stale_verdicts_roll_back_never_promote;
        ] );
      ( "epoch-props",
        [ QCheck_alcotest.to_alcotest domain_count_fingerprint_prop ] );
    ]
