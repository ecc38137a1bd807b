type phase = Shadow | Canary of float | Cutover

let phase_name = function
  | Shadow -> "shadow"
  | Canary f -> Printf.sprintf "canary-%.0f%%" (100. *. f)
  | Cutover -> "cutover"

let equal_phase a b =
  match a, b with
  | Shadow, Shadow | Cutover, Cutover -> true
  | Canary f, Canary g -> Float.equal f g
  | (Shadow | Canary _ | Cutover), _ -> false

let pp_phase ppf p = Fmt.string ppf (phase_name p)

type config = {
  canary_fraction : float;
  window : int;
  min_observations : int;
  max_divergence_rate : float;
  promote_after : int;
  initial : phase;
}

let default_config =
  { canary_fraction = 0.25;
    window = 32;
    min_observations = 8;
    max_divergence_rate = 0.05;
    promote_after = 24;
    initial = Shadow;
  }

type transition = {
  at_request : int;
  at_epoch : int;
  from_ : phase;
  to_ : phase;
  reason : string;
}

let pp_transition ppf t =
  Fmt.pf ppf "request %d (epoch %d): %s -> %s (%s)" t.at_request t.at_epoch
    (phase_name t.from_) (phase_name t.to_) t.reason

type status = Serving | Aborted

type t = {
  config : config;
  (* circular buffer of the last [window] shadow verdicts *)
  ring : bool array;
  mutable ring_len : int;
  mutable ring_pos : int;
  mutable divergent_in_window : int;
  mutable clean_streak : int;
  mutable phase : phase;
  mutable status : status;
  mutable transitions_rev : transition list;
  mutable observations : int;
  mutable gate_open : bool;
}

let validate config =
  let fraction_ok f = f >= 0. && f <= 1. in
  if config.window <= 0 then
    Error
      (Printf.sprintf "cutover window must be positive, got %d" config.window)
  else if config.min_observations > config.window then
    Error
      (Printf.sprintf
         "cutover min_observations %d exceeds the window %d: the divergence \
          rate would never be judged, so the guard could never roll back"
         config.min_observations config.window)
  else if not (fraction_ok config.canary_fraction) then
    Error
      (Printf.sprintf "canary fraction must lie in [0, 1], got %g"
         config.canary_fraction)
  else
    match config.initial with
    | Canary f when not (fraction_ok f) ->
        Error
          (Printf.sprintf
             "initial canary fraction must lie in [0, 1], got %g" f)
    | Shadow | Canary _ | Cutover -> Ok ()

let create config =
  (match validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cutover.create: " ^ msg));
  { config;
    ring = Array.make config.window false;
    ring_len = 0;
    ring_pos = 0;
    divergent_in_window = 0;
    clean_streak = 0;
    phase = config.initial;
    status = Serving;
    transitions_rev = [];
    observations = 0;
    gate_open = true;
  }

let phase t = t.phase
let status t = t.status
let transitions t = List.rev t.transitions_rev
let observations t = t.observations
let set_gate t open_ = t.gate_open <- open_

let next_phase t = function
  | Shadow -> Some (Canary t.config.canary_fraction)
  | Canary _ -> Some Cutover
  | Cutover -> None

let prev_phase = function
  | Cutover -> Some Shadow
      (* unreachable in practice: Cutover yields no observations *)
  | Canary _ -> Some Shadow
  | Shadow -> None

let reset_window t =
  Array.fill t.ring 0 t.config.window false;
  t.ring_len <- 0;
  t.ring_pos <- 0;
  t.divergent_in_window <- 0;
  t.clean_streak <- 0

let move t ~at ~epoch ~to_ ~reason =
  t.transitions_rev <-
    { at_request = at; at_epoch = epoch; from_ = t.phase; to_ = to_; reason }
    :: t.transitions_rev;
  t.phase <- to_;
  reset_window t

let observe ?served_in t ~request_id ~epoch ~divergent =
  let stale =
    match served_in with
    | Some p -> not (equal_phase p t.phase)
    | None -> false
  in
  match t.status with
  | Aborted -> ()
  | Serving when stale && not divergent -> ()
  | Serving ->
      t.observations <- t.observations + 1;
      (* slide the window *)
      if t.ring_len = t.config.window then begin
        if t.ring.(t.ring_pos) then
          t.divergent_in_window <- t.divergent_in_window - 1
      end
      else t.ring_len <- t.ring_len + 1;
      t.ring.(t.ring_pos) <- divergent;
      if divergent then t.divergent_in_window <- t.divergent_in_window + 1;
      t.ring_pos <- (t.ring_pos + 1) mod t.config.window;
      t.clean_streak <- (if divergent then 0 else t.clean_streak + 1);
      let rate = float t.divergent_in_window /. float (max 1 t.ring_len) in
      if
        t.ring_len >= t.config.min_observations
        && rate > t.config.max_divergence_rate
      then begin
        let reason =
          Printf.sprintf "rollback: divergence rate %.2f over last %d > %.2f"
            rate t.ring_len t.config.max_divergence_rate
        in
        match prev_phase t.phase with
        | Some to_ -> move t ~at:request_id ~epoch ~to_ ~reason
        | None ->
            t.transitions_rev <-
              { at_request = request_id;
                at_epoch = epoch;
                from_ = t.phase;
                to_ = t.phase;
                reason = reason ^ "; no phase below shadow: conversion aborted";
              }
              :: t.transitions_rev;
            t.status <- Aborted
      end
      else if t.clean_streak >= t.config.promote_after && t.gate_open then
        match next_phase t t.phase with
        | Some to_ ->
            move t ~at:request_id ~epoch ~to_
              ~reason:
                (Printf.sprintf "promoted: %d consecutive clean shadow runs"
                   t.clean_streak)
        | None -> ()

let rollback_to_shadow t ~at ~epoch ~reason =
  match t.status with
  | Aborted -> ()
  | Serving ->
      if not (equal_phase t.phase Shadow) then
        move t ~at ~epoch ~to_:Shadow ~reason
      else begin
        t.transitions_rev <-
          { at_request = at; at_epoch = epoch; from_ = t.phase; to_ = Shadow;
            reason }
          :: t.transitions_rev;
        reset_window t
      end
