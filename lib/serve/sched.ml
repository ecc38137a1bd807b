open Ccv_common

(* The token scheduler.

   Who runs which row is decided by tokens: a token is a shard cursor
   in one of the per-slot deques of a {!Ccv_common.Stealqueue}, and
   shard [s] starts on slot [s mod slots].  Every slot, the coordinator
   included, loops claiming a token — its own deque first, then another
   slot's — running its shard's next row and requeuing it, so a hot
   shard's rows migrate to whoever has cycles.

   A token retires — decrementing [pending] — in the claim that runs
   its last row, is told to retire, or crashes.  Workers claim until
   [pending] reaches zero, and the coordinator zeroes it once it has
   consumed everything it will consume: that releases workers cycling
   tokens whose rows will never be consumed (after an abort or a
   fault), and means no worker leaves while a row it could still run is
   unpublished. *)

type slot_stats = {
  rows_run : int;
  stolen : int;
  idle_s : float;
  steal_wait_s : float;
}

(* A shard cursor: holding the token is the exclusive right to run
   shard [ts]'s next pending row.  Exclusivity travels through the
   steal queue, so the mutable field needs no lock — only the current
   holder touches it, and the queue's CAS orders each handoff. *)
type token = { ts : int; mutable trow : int }

let run pool ~clock ~rows ~run_row ~on_crash ~consume ~finished =
  let nslots = Workpool.size pool in
  (* per-slot activity; each cell is written only by the domain running
     that slot and read after the drain *)
  let rows_run = Array.make nslots 0 in
  let stolen = Array.make nslots 0 in
  let idle_s = Array.make nslots 0. in
  let steal_wait_s = Array.make nslots 0. in
  let charge cells ~slot s = cells.(slot) <- cells.(slot) +. s in
  (* Tokens: one per shard with rows, on its home slot. *)
  let q = Stealqueue.create ~slots:nslots in
  let pending = Atomic.make 0 in
  Array.iteri
    (fun s n ->
      if n > 0 then begin
        Atomic.incr pending;
        Stealqueue.push q ~slot:(s mod nslots) { ts = s; trow = 0 }
      end)
    rows;
  (* One claim-and-run: [`Ran] when a row ran or a token retired,
     [`Blocked] when the claimed token's row is not ready, [`Empty] when
     there was nothing to claim.  Time spent claiming that comes up
     empty or steals is charged as steal-wait, not idle. *)
  let run_claim ~slot =
    let t0 = clock () in
    match Stealqueue.claim q ~slot with
    | Stealqueue.Empty ->
        charge steal_wait_s ~slot (clock () -. t0);
        `Empty
    | (Stealqueue.Own tok | Stealqueue.Stolen tok) as c -> (
        (match c with
        | Stealqueue.Stolen _ ->
            stolen.(slot) <- stolen.(slot) + 1;
            charge steal_wait_s ~slot (clock () -. t0)
        | _ -> ());
        match run_row ~shard:tok.ts ~row:tok.trow with
        | `Ran next ->
            rows_run.(slot) <- rows_run.(slot) + 1;
            tok.trow <- next;
            (* requeue at the tail: tokens cycle round-robin, so every
               shard keeps pace with the arrival schedule — re-pushing
               at the head would grind one shard to its lag fence while
               the others' requests age (bursty completions, fat
               open-loop tail) *)
            if next < rows.(tok.ts) then Stealqueue.push_back q ~slot tok
            else Atomic.decr pending;
            `Ran
        | `Blocked ->
            (* park at the tail: the owner cycles past it, a thief
               finds it first *)
            Stealqueue.push_back q ~slot tok;
            `Blocked
        | `Retire ->
            Atomic.decr pending;
            `Ran
        | exception ex ->
            (* the caller completes the shard's rows or the canonical
               order stalls; whatever it leaves undone is the
               coordinator's quiescence sweep's to catch *)
            (try on_crash ~shard:tok.ts ~row:tok.trow ex with _ -> ());
            Atomic.decr pending;
            `Ran)
  in
  (* A worker cannot leave while tokens are live (a hot shard may
     still need it), so while empty-handed it backs off exponentially
     instead of waking every few microseconds.  Holding a blocked token
     is different: its row runs as soon as the coordinator publishes
     what it waits on, so that slot keeps napping at the short
     interval. *)
  let worker w =
    let spins = ref 0 in
    let nap = ref 50e-6 in
    while Atomic.get pending > 0 do
      match run_claim ~slot:w with
      | `Ran ->
          spins := 0;
          nap := 50e-6
      | (`Blocked | `Empty) when !spins < 200 ->
          incr spins;
          Domain.cpu_relax ()
      | (`Blocked | `Empty) as c ->
          let t0 = clock () in
          if c = `Blocked then Unix.sleepf 50e-6
          else begin
            Unix.sleepf !nap;
            nap := Float.min (2. *. !nap) 2e-3
          end;
          charge idle_s ~slot:w (clock () -. t0)
    done
  in
  (* The coordinator claims like any other slot.  One claim per pass:
     it must come back to consuming (and whatever consuming publishes)
     after every row, or workers block on rows it has not released
     while it grinds through a burst. *)
  let coordinate () =
    let spins = ref 0 in
    while not (finished ()) do
      let progress = run_claim ~slot:0 = `Ran in
      let progress = consume () || progress in
      if progress || finished () then spins := 0
      else if nslots > 1 && Workpool.quiescent pool then begin
        (* workers leave only once every token retired, so whatever
           they published is final — one last sweep, then anything
           still missing means a job died ([drain] raises for a crash) *)
        Workpool.drain pool;
        ignore (consume ());
        if not (finished ()) then
          failwith
            "epoch serving: workers exited without completing their rows"
      end
      else if !spins < 200 then begin
        incr spins;
        Domain.cpu_relax ()
      end
      else begin
        let t0 = clock () in
        Unix.sleepf 50e-6;
        charge idle_s ~slot:0 (clock () -. t0)
      end
    done
  in
  if nslots > 1 then Workpool.submit pool worker;
  Fun.protect ~finally:(fun () -> Atomic.set pending 0) coordinate;
  if nslots > 1 then Workpool.drain pool;
  Array.init nslots (fun i ->
      { rows_run = rows_run.(i);
        stolen = stolen.(i);
        idle_s = idle_s.(i);
        steal_wait_s = steal_wait_s.(i);
      })
