(* The benchmark program: one workload, one seed, measured for a fixed
   number of seconds.

     bench.exe --workload steady|cold|live --seed N --seconds S
               --trace 0|1 [--commit ID] [--trace-out FILE]

   Untraced rounds each run [Pool.run] over fresh replicas and give the
   end-to-end metrics (--trace 0) and the report-derived per-layer
   metrics.  With --trace 1 a traced single-domain replay of the same
   stream adds the span-derived per-layer metrics.  Every metric is
   printed by name with unit, sample count and provenance; the last
   line of stdout is one JSON object. *)

module S = Ccv_serve
module Pc = Ccv_plan.Plan_cache

let now = Spans.now_s

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  source : string;
}

let metric ?(source = "untraced") name value unit_ samples =
  { name; value; unit_; samples; source }

(* ------------------------------------------------------------------ *)
(* Untraced rounds *)

type round = {
  index : int;  (** which stream ({!Workload.t.stream}) it served *)
  started : float;  (** seconds into the measuring loop *)
  stolen_ticks : int;  (** CPU steal during Pool.run, 1/100 s *)
  round_s : float;  (** Pool.run wall time, set-up included *)
  attempted : int;
  served_failed : int;  (** unserved + run error + trace <> reference *)
  failed : int;  (** served_failed, or a divergent shadow verdict *)
  divergent : int;
  refused : int;
  shadowed : int;
  served : int;
  p50 : float;  (** service latency percentiles, us *)
  p99 : float;
  mean_latency : float;  (** us *)
  throughput : float;
  prepare_s : float;
  first_s : float;
  busy_s : float;
  idle_s : float;
  steal_wait_s : float;
  other_s : float;
  stolen : int;
  hit_rate : float;
  misses : int;
  source_accesses : int;
  target_accesses : int;
  faulted : int;
  backfilled : int;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  served_traces : (int * Ccv_common.Io_trace.t * bool) list;
      (** (request id, served trace, divergent); kept for the round the
          traced replay is compared with, empty otherwise *)
}

(* Ticks (1/100 s, summed over CPUs) the hypervisor took from this
   machine: time the program was ready to run and did not.  0 where
   /proc/stat is not available. *)
let steal_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0
  | ic -> (
      let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          Option.value (int_of_string_opt steal) ~default:0
      | _ -> 0)

let run_round (w : Workload.t) ~index ~started ~keep_traces ~requests ~reference =
  let attempted = List.length requests in
  (* every round starts after a full collection, so one round's
     garbage does not tax the next *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let st0 = steal_ticks () and t0 = now () in
  let res =
    S.Pool.run ~config:w.Workload.config ~cutover:w.Workload.cutover
      w.Workload.req w.Workload.sdb requests
  in
  let round_s = now () -. t0 and stolen_ticks = steal_ticks () - st0 in
  let g1 = Gc.quick_stat () in
  match res with
  | Error e -> Error e
  | Ok r ->
      let outs = r.S.Pool.outcomes in
      let count p = List.length (List.filter p outs) in
      let mismatched (o : S.Shadow.outcome) =
        not
          (Ccv_common.Io_trace.equal o.S.Shadow.served_trace
             (Hashtbl.find reference o.S.Shadow.request.S.Request.id))
      in
      let served = List.length outs in
      let mism = count mismatched in
      let lat = List.map (fun (o : S.Shadow.outcome) -> o.S.Shadow.latency_us) outs in
      let busy_s = Stats.sum lat *. 1e-6 in
      let idle_s = r.S.Pool.pool_idle_s in
      let steal_wait_s = Stats.sum r.S.Pool.steal_wait_s in
      let mig f = match r.S.Pool.migration with None -> 0 | Some m -> f m in
      let ps = r.S.Pool.plan_stats in
      Ok
        { index;
          started;
          stolen_ticks;
          round_s;
          attempted;
          served_failed = (attempted - served) + mism;
          failed =
            (attempted - served)
            + count (fun o -> mismatched o || o.S.Shadow.divergent);
          divergent = count (fun o -> o.S.Shadow.divergent);
          refused = count (fun o -> o.S.Shadow.refused);
          shadowed = count (fun o -> o.S.Shadow.shadowed);
          served;
          p50 = Stats.percentile 0.50 lat;
          p99 = Stats.percentile 0.99 lat;
          mean_latency = busy_s *. 1e6 /. float served;
          throughput = float served /. r.S.Pool.wall_s;
          prepare_s = r.S.Pool.prepare_s;
          first_s =
            (r.S.Pool.prepare_s
            +. match outs with o :: _ -> o.S.Shadow.latency_us *. 1e-6 | [] -> 0.);
          busy_s;
          idle_s;
          steal_wait_s;
          other_s =
            (float r.S.Pool.domains *. r.S.Pool.wall_s) -. busy_s -. idle_s
            -. steal_wait_s;
          stolen =
            (match r.S.Pool.steal_stats with
            | None -> 0
            | Some l -> List.fold_left (fun a s -> a + s.S.Pool.stolen) 0 l);
          hit_rate = Pc.hit_rate ps;
          misses = ps.Pc.misses;
          source_accesses =
            List.fold_left (fun a (o : S.Shadow.outcome) -> a + o.S.Shadow.source_accesses) 0 outs;
          target_accesses =
            List.fold_left (fun a (o : S.Shadow.outcome) -> a + o.S.Shadow.target_accesses) 0 outs;
          faulted = mig (fun m -> m.Ccv_migrate.Migrate.faulted);
          backfilled = mig (fun m -> m.Ccv_migrate.Migrate.backfilled);
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
          minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
          served_traces =
            (if not keep_traces then []
             else
               List.map
                 (fun (o : S.Shadow.outcome) ->
                   (o.S.Shadow.request.S.Request.id, o.S.Shadow.served_trace,
                    o.S.Shadow.divergent))
                 outs);
        }

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ------------------------------------------------------------------ *)

(* Rounds that start in the first [warmup_s] seconds (at least the
   first round) warm the process and the host up — domain spawns, heap
   growth, CPU clocks — and are checked but not timed. *)
let warmup_s = 2.

let timed rounds = List.filter (fun r -> r.started >= warmup_s) rounds

(* The timed rounds timings are taken from.  On a shared host the
   hypervisor now and then takes CPU away from the benchmark (steal);
   a round that lost more than 1% of its CPU time that way measures the
   host, not the program.  Timings come from every round clean in that
   sense, and at least from the cleanest half of the timed rounds. *)
let clean rounds =
  let rounds = timed rounds in
  let ncpu = Domain.recommended_domain_count () in
  let is_clean r = float r.stolen_ticks <= 0.01 *. 100. *. r.round_s *. float ncpu in
  let k =
    max (List.length (List.filter is_clean rounds)) ((List.length rounds + 1) / 2)
  in
  List.stable_sort
    (fun a b ->
      Float.compare
        (float a.stolen_ticks /. a.round_s)
        (float b.stolen_ticks /. b.round_s))
    rounds
  |> List.filteri (fun i _ -> i < k)

(* Timings are interquartile means of per-round figures; [errored]
   requests (rounds whose Pool.run returned Error) count as attempted
   and failed. *)
let end_to_end rounds ~errored =
  let n = List.length (clean rounds) in
  let per_round f = Stats.iqm (List.map f (clean rounds)) in
  let tot f = List.fold_left (fun a r -> a + f r) 0 rounds in
  let attempted = errored + tot (fun r -> r.attempted) in
  let samples =
    List.fold_left (fun a r -> a + r.served) 0 (clean rounds)
  in
  [ metric "throughput_rps" (per_round (fun r -> r.throughput)) "req/s" n;
    metric "service_p50_us" (per_round (fun r -> r.p50)) "us" samples;
    metric "service_p99_us" (per_round (fun r -> r.p99)) "us" samples;
    metric "setup_s" (per_round (fun r -> r.prepare_s)) "s" n;
    metric "first_response_s" (per_round (fun r -> r.first_s)) "s" n;
    metric "converted_frac" (float (tot (fun r -> r.shadowed)) /. float attempted) "frac" attempted;
    metric "ok_frac"
      (1. -. (float (errored + tot (fun r -> r.failed)) /. float attempted))
      "frac" attempted;
    metric "peak_rss_mb" (peak_rss_mb ()) "MB" 1;
  ]

(* Report-derived per-layer metrics, medians over the untraced rounds
   (per-request ratios over all of them). *)
let report_layers rounds =
  let rounds = clean rounds in
  let n = List.length rounds in
  let med f = Stats.median (List.map f rounds) in
  let medi f = med (fun r -> float (f r)) in
  let reqs = float (List.fold_left (fun a r -> a + r.served) 0 rounds) in
  let per f = List.fold_left (fun a r -> a +. f r) 0. rounds /. reqs in
  [ metric "serve.pool.busy_s" (med (fun r -> r.busy_s)) "s" n;
    metric "serve.pool.idle_s" (med (fun r -> r.idle_s)) "s" n;
    metric "serve.pool.steal_wait_s" (med (fun r -> r.steal_wait_s)) "s" n;
    metric "serve.pool.other_s" (med (fun r -> r.other_s)) "s" n;
    metric "serve.steal.stolen" (medi (fun r -> r.stolen)) "count" n;
    metric "plan.cache.hit_rate" (med (fun r -> r.hit_rate)) "frac" n;
    metric "plan.cache.misses" (medi (fun r -> r.misses)) "count" n;
    metric "convert.source_accesses_per_req" (per (fun r -> float r.source_accesses)) "count" (int_of_float reqs);
    metric "convert.target_accesses_per_req" (per (fun r -> float r.target_accesses)) "count" (int_of_float reqs);
    metric "serve.shadow.refused" (medi (fun r -> r.refused)) "count" n;
    metric "serve.shadow.divergent" (medi (fun r -> r.divergent)) "count" n;
    metric "migrate.faulted_per_req" (per (fun r -> float r.faulted)) "count" (int_of_float reqs);
    metric "migrate.backfilled" (medi (fun r -> r.backfilled)) "count" n;
    metric "gc.minor_words_per_req" (per (fun r -> r.minor_words)) "words" (int_of_float reqs);
    metric "gc.promoted_words_per_req" (per (fun r -> r.promoted_words)) "words" (int_of_float reqs);
    metric "gc.minor_collections" (medi (fun r -> r.minor_collections)) "count" n;
    metric "gc.major_collections" (medi (fun r -> r.major_collections)) "count" n;
  ]

(* ------------------------------------------------------------------ *)
(* Traced run *)

(* Span-derived per-layer metrics plus the traced-run checks: the
   replay serves what the untraced rounds served, and the self times
   of every span in the serving phase close on its total. *)
let traced_layers w rounds ~inputs ~trace_out =
  (* replay the stream of the first timed round, and compare with it *)
  let same = List.hd (timed rounds) in
  let requests, reference = inputs same.index in
  Gc.full_major ();
  let res = Replay.run w requests in
  let spans = res.Replay.spans in
  let partial = Spans.nest spans in
  let self = Spans.self_times spans in
  let all = spans.Spans.spans in
  let replay = List.find (fun s -> s.Spans.name = "replay") all in
  let serving =
    List.filter
      (fun s -> s.Spans.start >= replay.Spans.start && s.Spans.stop <= replay.Spans.stop)
      all
  in
  let total = Spans.dur replay in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let sf, d, c =
        Option.value (Hashtbl.find_opt by_name s.Spans.name) ~default:(0, 0, 0)
      in
      Hashtbl.replace by_name s.Spans.name
        (sf + Hashtbl.find self s.Spans.id, d + Spans.dur s, c + 1))
    serving;
  let self_ns name = match Hashtbl.find_opt by_name name with Some (s, _, _) -> s | None -> 0 in
  let dur_ns name = match Hashtbl.find_opt by_name name with Some (_, d, _) -> d | None -> 0 in
  let sum_self = Hashtbl.fold (fun _ (s, _, _) a -> a + s) by_name 0 in
  let n = List.length res.Replay.served in
  let per_req_us ns = float ns /. 1e3 /. float n in
  let residue = self_ns "replay" + self_ns "request" in
  (* set-up spans sit outside the serving phase *)
  let setup_durs name =
    List.filter_map
      (fun s -> if s.Spans.name = name then Some (float (Spans.dur s) *. 1e-9) else None)
      all
  in
  let setup_s name = match setup_durs name with [] -> 0. | l -> Stats.median l in
  let untraced_lat_us = same.mean_latency in
  (* checks *)
  let first = same.served_traces in
  let untraced = Hashtbl.create n in
  List.iter (fun (id, t, d) -> Hashtbl.replace untraced id (t, d)) first;
  let agree =
    List.length first = n
    && List.for_all
         (fun (id, t, d) ->
           match Hashtbl.find_opt untraced id with
           | Some (t', d') -> d = d' && Ccv_common.Io_trace.equal t t'
           | None -> false)
         res.Replay.served
  in
  let matches_reference =
    List.for_all
      (fun (id, t, _) -> Ccv_common.Io_trace.equal t (Hashtbl.find reference id))
      res.Replay.served
  in
  let closes = partial = 0 && sum_self = total in
  Printf.printf
    "traced replay: %d requests, %.3f s serving, %d spans, %d GC events lost, \
     %d partial overlaps\n"
    n (float total *. 1e-9) (List.length all) res.Replay.lost_gc_events partial;
  Printf.printf "  self-time closure: sum of self times %d ns vs total %d ns: %s\n"
    sum_self total (if closes then "closes" else "DOES NOT CLOSE");
  Printf.printf "  served traces equal the untraced run's: %b; equal the reference: %b\n"
    agree matches_reference;
  Printf.printf "  self-time shares of the serving phase:\n";
  Hashtbl.fold (fun k (s, _, c) acc -> (k, s, c) :: acc) by_name []
  |> List.sort (fun (_, a, _) (_, b, _) -> Int.compare b a)
  |> List.iter (fun (k, s, c) ->
         Printf.printf "    %-26s %6.2f%%  %10.3f us/req  (%d spans)\n" k
           (100. *. float s /. float total) (per_req_us s) c);
  (* per layer: the span-name prefix; the replay and request spans'
     own self time is the unattributed residue *)
  let share ns = 100. *. float ns /. float total in
  let layer name =
    match String.index_opt name '.' with
    | _ when name = "replay" || name = "request" -> "residue"
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let layers = Hashtbl.create 8 in
  Hashtbl.iter
    (fun k (sf, _, _) ->
      let l = layer k in
      Hashtbl.replace layers l (sf + Option.value (Hashtbl.find_opt layers l) ~default:0))
    by_name;
  Printf.printf "  self-time shares by layer: %s\n"
    (Hashtbl.fold (fun l ns acc -> (l, ns) :: acc) layers []
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
    |> List.map (fun (l, ns) -> Printf.sprintf "%s %.2f%%" l (share ns))
    |> String.concat ", ");
  Printf.printf "  plan.compile + convert.serve_pair: %.2f%% of self time\n"
    (share (self_ns "plan.compile" + self_ns "convert.serve_pair"));
  (match trace_out with
  | "" -> ()
  | path ->
      Spans.write spans path;
      Printf.printf "  spans written to %s\n" path);
  let tm ?(unit_ = "us") name value samples = metric ~source:"traced" name value unit_ samples in
  let count name = match Hashtbl.find_opt by_name name with Some (_, _, c) -> c | None -> 0 in
  ( [ tm "serve.judge_us" (per_req_us (self_ns "serve.judge")) n;
      tm "serve.controller_us" (per_req_us (self_ns "serve.controller")) n;
      tm "plan.lookup_us" (per_req_us (self_ns "plan.lookup")) n;
      tm "plan.compile_us" (per_req_us (self_ns "plan.compile")) n;
      tm "convert.serve_pair_us" (per_req_us (self_ns "convert.serve_pair")) n;
      tm "convert.source_run_us" (per_req_us (self_ns "convert.source_run")) n;
      tm "convert.target_run_us" (per_req_us (self_ns "convert.target_run")) n;
      tm "migrate.admit_us" (per_req_us (self_ns "migrate.admit")) n;
      tm "migrate.fault_in_us" (per_req_us (self_ns "migrate.fault_in")) n;
      tm "migrate.backfill_us_per_slot"
        (if res.Replay.backfilled = 0 then 0.
         else float (self_ns "migrate.backfill") /. 1e3 /. float res.Replay.backfilled)
        res.Replay.backfilled;
      tm ~unit_:"s" "migrate.start_s" (setup_s "migrate.start") (List.length (setup_durs "migrate.start"));
      tm ~unit_:"s" "transform.realize_source_s" (setup_s "transform.realize_source") 1;
      tm ~unit_:"s" "transform.translate_s" (setup_s "transform.translate") 1;
      tm ~unit_:"s" "gc.minor_pause_s" (float (dur_ns "gc.minor") *. 1e-9) (count "gc.minor");
      tm ~unit_:"s" "gc.major_slice_s" (float (dur_ns "gc.major_slice") *. 1e-9) (count "gc.major_slice");
      tm "trace.request_us" (per_req_us total) n;
      tm "trace.residue_us" (per_req_us residue) n;
      tm "trace.overhead_us" (per_req_us (dur_ns "request") -. untraced_lat_us) n;
    ],
    closes && agree && matches_reference )

(* ------------------------------------------------------------------ *)

let json_metric m =
  (* JSON has no nan: a metric with no samples is null *)
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
    (if Float.is_finite m.value then Printf.sprintf "%.17g" m.value else "null")
    m.unit_

let print_table ms =
  List.iter
    (fun m ->
      Printf.printf "  %-34s %16.6f %-6s n=%-8d %s\n" m.name m.value m.unit_
        m.samples m.source)
    ms

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) and commit = ref "unknown" and trace_out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " steady | cold | live");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--commit", Arg.Set_string commit, " provenance: source revision");
      ("--trace-out", Arg.Set_string trace_out, " where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workload.names) then (
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2);
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then (
    prerr_endline "need --seed >= 0, --seconds >= 1 and --trace 0|1";
    exit 2);
  Printf.printf "provenance: workload=%s seed=%d seconds=%d trace=%d commit=%s nproc=%d OCAMLRUNPARAM=%s domains=%d\n%!"
    !workload !seed !seconds !trace !commit
    (Domain.recommended_domain_count ())
    (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"")
    Workload.domains;
  (* harness: inputs and the reference, built once, outside every
     timed region *)
  let t0 = now () in
  let w = Workload.make !workload ~seed:!seed in
  let reference_of = Reference.create w in
  Printf.printf "harness: instance and reference replica built in %.3f s\n%!"
    (now () -. t0);
  (* each round's stream and reference are built outside the timed
     region; Pool.run clocks set-up and serving itself *)
  let harness = ref 0. in
  let inputs round =
    let t = now () in
    let requests = w.Workload.stream round in
    let reference = reference_of requests in
    harness := !harness +. (now () -. t);
    (requests, reference)
  in
  let start = now () in
  let rec loop round acc errors =
    if timed acc <> [] && now () -. start >= float !seconds then
      (List.rev acc, errors)
    else
      let requests, reference = inputs round in
      let started = now () -. start in
      let keep_traces = started >= warmup_s && timed acc = [] in
      match run_round w ~index:round ~started ~keep_traces ~requests ~reference with
      | Ok r ->
          Printf.printf
            "round %3d%s: setup %.4f s, %.0f req/s, p50 %.2f us, p99 %.2f us, \
             %d divergent, %d refused, %d steal ticks\n%!"
            round (if started < warmup_s then " (warm-up)" else "") r.prepare_s r.throughput
            r.p50 r.p99 r.divergent r.refused r.stolen_ticks;
          loop (round + 1) (r :: acc) errors
      | Error e ->
          Printf.printf "round %d error: %s\n%!" round e;
          let errors = errors + List.length requests in
          if errors >= 3 * List.length requests then (List.rev acc, errors)
          else loop (round + 1) acc errors
  in
  let rounds, errors = loop 0 [] 0 in
  let attempted = errors + List.fold_left (fun a r -> a + r.attempted) 0 rounds in
  let served_failed =
    errors + List.fold_left (fun a r -> a + r.served_failed) 0 rounds
  in
  Printf.printf "rounds: %d in %.3f s (%.3f s of it building streams and references); \
                 %d attempted, %d served failures, %d divergent, %d refused\n%!"
    (List.length rounds) (now () -. start) !harness attempted served_failed
    (List.fold_left (fun a r -> a + r.divergent) 0 rounds)
    (List.fold_left (fun a r -> a + r.refused) 0 rounds);
  if timed rounds = [] then (
    prerr_endline "no timed round completed";
    exit 1);
  Printf.printf "timings from %d of %d timed rounds (%d steal ticks in all rounds)\n%!"
    (List.length (clean rounds)) (List.length (timed rounds))
    (List.fold_left (fun a r -> a + r.stolen_ticks) 0 rounds);
  let metrics, traced_ok =
    if !trace = 0 then (end_to_end rounds ~errored:errors, true)
    else
      let traced, ok = traced_layers w rounds ~inputs ~trace_out:!trace_out in
      (report_layers rounds @ traced, ok)
  in
  print_table metrics;
  let correct = served_failed = 0 && traced_ok in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted served_failed
    (String.concat ", " (List.map json_metric metrics))
