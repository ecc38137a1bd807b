open Ccv_common

(* ------------------------------------------------------------------ *)
(* Latency histogram: fixed bucket upper bounds, in microseconds.      *)

let bounds =
  [| 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.; 10_000.; 20_000.;
     50_000.; 100_000.; infinity;
  |]

type hist = { counts : int array; mutable n : int }

let hist_create () = { counts = Array.make (Array.length bounds) 0; n = 0 }

let bucket_of us =
  let rec go i = if us <= bounds.(i) then i else go (i + 1) in
  go 0

let hist_add h us =
  let i = bucket_of (Float.max 0. us) in
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1

let hist_count h = h.n

let hist_quantile h q =
  if h.n = 0 then 0.
  else begin
    let target = Float.of_int h.n *. q in
    let acc = ref 0 and result = ref bounds.(Array.length bounds - 1) in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if Float.of_int !acc >= target then begin
             result := bounds.(i);
             raise Exit
           end)
         h.counts
     with Exit -> ());
    !result
  end

let hist_merge ~into h =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) h.counts;
  into.n <- into.n + h.n

(* ------------------------------------------------------------------ *)

type cell = {
  mutable requests : int;
  mutable by_source : int;
  mutable by_target : int;
  mutable shadowed : int;
  mutable divergent : int;
  mutable refused : int;
  mutable source_accesses : int;
  mutable target_accesses : int;
  mutable trace_events : int;
  mutable epochs : int;  (* distinct logical epochs seen by this cell *)
  mutable last_epoch : int;
  cell_latency : hist;
}

let cell_create () =
  { requests = 0;
    by_source = 0;
    by_target = 0;
    shadowed = 0;
    divergent = 0;
    refused = 0;
    source_accesses = 0;
    target_accesses = 0;
    trace_events = 0;
    epochs = 0;
    last_epoch = -1;
    cell_latency = hist_create ();
  }

type t = {
  (* (phase, shard) cells in first-seen order; the coordinator is the
     only writer — it records each outcome as it consumes it — so no
     mutex guards the assoc lookup. *)
  mutable cells : ((string * int) * cell) list;
}

let create () = { cells = [] }

let cell t ~phase ~shard =
  match List.assoc_opt (phase, shard) t.cells with
  | Some c -> c
  | None ->
      let c = cell_create () in
      t.cells <- t.cells @ [ ((phase, shard), c) ];
      c

let record t (o : Shadow.outcome) =
  let c = cell t ~phase:o.Shadow.phase ~shard:o.Shadow.shard in
  c.requests <- c.requests + 1;
  (match o.Shadow.decision with
  | Shadow.Serve_source -> c.by_source <- c.by_source + 1
  | Shadow.Serve_target -> c.by_target <- c.by_target + 1);
  if o.Shadow.shadowed then c.shadowed <- c.shadowed + 1;
  if o.Shadow.divergent then c.divergent <- c.divergent + 1;
  if o.Shadow.refused then c.refused <- c.refused + 1;
  c.source_accesses <- c.source_accesses + o.Shadow.source_accesses;
  c.target_accesses <- c.target_accesses + o.Shadow.target_accesses;
  c.trace_events <- c.trace_events + Io_trace.length o.Shadow.served_trace;
  (* outcomes reach the coordinator in canonical (epoch, shard, seq)
     order, so within one cell the epoch is non-decreasing and a
     change marks one more distinct epoch served under this phase *)
  if o.Shadow.epoch <> c.last_epoch then begin
    c.epochs <- c.epochs + 1;
    c.last_epoch <- o.Shadow.epoch
  end;
  hist_add c.cell_latency o.Shadow.latency_us

let phases t =
  List.fold_left
    (fun acc ((phase, _), _) -> if List.mem phase acc then acc else acc @ [ phase ])
    [] t.cells

type phase_totals = {
  requests : int;
  by_source : int;
  by_target : int;
  shadowed : int;
  divergent : int;
  refused : int;
  source_accesses : int;
  target_accesses : int;
  trace_events : int;
  latency : hist;
}

let phase_totals t ~phase =
  List.fold_left
    (fun acc ((p, _), c) ->
      if p <> phase then acc
      else begin
        hist_merge ~into:acc.latency c.cell_latency;
        { acc with
          requests = acc.requests + c.requests;
          by_source = acc.by_source + c.by_source;
          by_target = acc.by_target + c.by_target;
          shadowed = acc.shadowed + c.shadowed;
          divergent = acc.divergent + c.divergent;
          refused = acc.refused + c.refused;
          source_accesses = acc.source_accesses + c.source_accesses;
          target_accesses = acc.target_accesses + c.target_accesses;
          trace_events = acc.trace_events + c.trace_events;
        }
      end)
    { requests = 0;
      by_source = 0;
      by_target = 0;
      shadowed = 0;
      divergent = 0;
      refused = 0;
      source_accesses = 0;
      target_accesses = 0;
      trace_events = 0;
      latency = hist_create ();
    }
    t.cells

let sum f t = List.fold_left (fun acc (_, c) -> acc + f c) 0 t.cells
let total_requests t = sum (fun c -> c.requests) t
let total_divergent t = sum (fun c -> c.divergent) t
let total_refused t = sum (fun c -> c.refused) t

let quantile_cell h q =
  if hist_count h = 0 then "-"
  else
    let v = hist_quantile h q in
    if Float.is_integer v && not (Float.is_nan v) && v < infinity then
      Printf.sprintf "<=%.0fus" v
    else if v = infinity then ">100ms"
    else Printf.sprintf "<=%.0fus" v

let render t =
  let phase_rows =
    List.map
      (fun phase ->
        let p = phase_totals t ~phase in
        [ phase;
          string_of_int p.requests;
          string_of_int p.by_source;
          string_of_int p.by_target;
          string_of_int p.shadowed;
          string_of_int p.divergent;
          string_of_int p.refused;
          string_of_int p.source_accesses;
          string_of_int p.target_accesses;
          quantile_cell p.latency 0.5;
          quantile_cell p.latency 0.95;
        ])
      (phases t)
  in
  let shard_rows =
    List.map
      (fun ((phase, shard), (c : cell)) ->
        [ phase;
          string_of_int shard;
          string_of_int c.requests;
          string_of_int c.shadowed;
          string_of_int c.divergent;
          string_of_int (c.source_accesses + c.target_accesses);
          quantile_cell c.cell_latency 0.5;
        ])
      t.cells
  in
  Tablefmt.render ~title:"per-phase service metrics"
    ~aligns:
      [ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
        Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
        Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
      ]
    [ "phase"; "reqs"; "src"; "tgt"; "shadowed"; "divergent"; "refused";
      "src acc"; "tgt acc"; "p50"; "p95";
    ]
    phase_rows
  ^ "\n"
  ^ Tablefmt.render ~title:"per-shard breakdown"
      ~aligns:
        [ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
        ]
      [ "phase"; "shard"; "reqs"; "shadowed"; "divergent"; "accesses"; "p50" ]
      shard_rows

(* -1 marks "beyond the top bucket" so the JSON stays numeric *)
let json_us v = if v = infinity then "-1" else Printf.sprintf "%.0f" v

let json_rows t =
  let cell_rows =
    List.map
      (fun ((phase, shard), (c : cell)) ->
        [ ("kind", Printf.sprintf "%S" "serve-shard");
          ("phase", Printf.sprintf "%S" phase);
          ("shard", string_of_int shard);
          ("requests", string_of_int c.requests);
          ("shadowed", string_of_int c.shadowed);
          ("divergent", string_of_int c.divergent);
          ("refused", string_of_int c.refused);
          ("source_accesses", string_of_int c.source_accesses);
          ("target_accesses", string_of_int c.target_accesses);
          ("epochs", string_of_int c.epochs);
        ])
      t.cells
  in
  let phase_rows =
    List.map
      (fun phase ->
        let p = phase_totals t ~phase in
        [ ("kind", Printf.sprintf "%S" "serve-phase");
          ("phase", Printf.sprintf "%S" phase);
          ("requests", string_of_int p.requests);
          ("by_source", string_of_int p.by_source);
          ("by_target", string_of_int p.by_target);
          ("shadowed", string_of_int p.shadowed);
          ("divergent", string_of_int p.divergent);
          ("refused", string_of_int p.refused);
          ("source_accesses", string_of_int p.source_accesses);
          ("target_accesses", string_of_int p.target_accesses);
          ("trace_events", string_of_int p.trace_events);
          ("latency_p50_us", json_us (hist_quantile p.latency 0.5));
          ("latency_p95_us", json_us (hist_quantile p.latency 0.95));
        ])
      (phases t)
  in
  phase_rows @ cell_rows
