(* The token scheduler on its own, at 1 to 4 slots whatever the host's
   core count: a fake row runner over per-shard atomic cursors stands in
   for the shards, so every multi-slot path runs without serving
   anything. *)

open Ccv_common
open Ccv_serve

let check = Alcotest.(check bool)
let slot_counts = [ 1; 2; 3; 4 ]

(* Uneven shards: one holds most of the rows, one holds none. *)
let rows = [| 3; 41; 1; 0; 6; 2 |]
let total = Array.fold_left ( + ) 0 rows

(* [cursor.(s)] is shard [s]'s next row: a row runs only by moving its
   shard's cursor from [row] to [row + 1], so a duplicate or
   out-of-order run shows up as a failed compare-and-set in [bad].
   [settled] counts rows run plus rows given up on (retired or
   crashed), which is what [finished] waits for. *)
type fake = {
  cursor : int Atomic.t array;
  bad : int Atomic.t;
  settled : int Atomic.t;
}

let fake () =
  { cursor = Array.map (fun _ -> Atomic.make 0) rows;
    bad = Atomic.make 0;
    settled = Atomic.make 0;
  }

let step f ~shard ~row =
  if not (Atomic.compare_and_set f.cursor.(shard) row (row + 1)) then
    Atomic.incr f.bad;
  Atomic.incr f.settled;
  `Ran (row + 1)

let give_up f ~shard ~row =
  ignore (Atomic.fetch_and_add f.settled (rows.(shard) - row))

let run ?(on_crash = fun ~shard:_ ~row:_ _ -> ()) n f run_row =
  Workpool.with_pool n (fun pool ->
      Sched.run pool ~clock:Unix.gettimeofday ~rows ~run_row ~on_crash
        ~consume:(fun () -> false)
        ~finished:(fun () -> Atomic.get f.settled >= total))

let rows_run stats =
  Array.fold_left (fun a (s : Sched.slot_stats) -> a + s.Sched.rows_run) 0 stats

(* Every shard's cursor ends where [expect] says, with no duplicate or
   out-of-order run on the way. *)
let check_cursors ~label f expect =
  check (label ^ ": no duplicate or out-of-order row") true
    (Atomic.get f.bad = 0);
  Array.iteri
    (fun s c ->
      check
        (Printf.sprintf "%s: shard %d stopped at row %d" label s (expect s))
        true
        (Atomic.get c = expect s))
    f.cursor

let exactly_once_in_order () =
  List.iter
    (fun n ->
      let label = Printf.sprintf "%d slot(s)" n in
      let f = fake () in
      let stats = run n f (step f) in
      check_cursors ~label f (fun s -> rows.(s));
      check (label ^ ": one stats entry per slot") true
        (Array.length stats = n);
      check (label ^ ": rows_run sums to the row count") true
        (rows_run stats = total);
      check (label ^ ": times are non-negative") true
        (Array.for_all
           (fun (s : Sched.slot_stats) ->
             s.Sched.idle_s >= 0. && s.Sched.steal_wait_s >= 0.)
           stats))
    slot_counts

let blocked_row_is_retried () =
  List.iter
    (fun n ->
      let label = Printf.sprintf "%d slot(s)" n in
      let f = fake () in
      let refusals = Atomic.make 0 in
      let stats =
        run n f (fun ~shard ~row ->
            if shard = 1 && row = 5 && Atomic.fetch_and_add refusals 1 < 3 then
              `Blocked
            else step f ~shard ~row)
      in
      check (label ^ ": the row was refused three times") true
        (Atomic.get refusals = 4);
      check_cursors ~label f (fun s -> rows.(s));
      check (label ^ ": rows_run sums to the row count") true
        (rows_run stats = total))
    slot_counts

let retire_stops_one_shard () =
  List.iter
    (fun n ->
      let label = Printf.sprintf "%d slot(s)" n in
      let f = fake () in
      let stats =
        run n f (fun ~shard ~row ->
            if shard = 4 && row = 2 then begin
              give_up f ~shard ~row;
              `Retire
            end
            else step f ~shard ~row)
      in
      check_cursors ~label f (fun s -> if s = 4 then 2 else rows.(s));
      check (label ^ ": rows_run counts the rows that ran") true
        (rows_run stats = total - (rows.(4) - 2)))
    slot_counts

let crash_reaches_on_crash () =
  List.iter
    (fun n ->
      let label = Printf.sprintf "%d slot(s)" n in
      let f = fake () in
      let crashes = Atomic.make [] in
      let on_crash ~shard ~row e =
        let rec add () =
          let l = Atomic.get crashes in
          if not (Atomic.compare_and_set crashes l ((shard, row, e) :: l)) then
            add ()
        in
        add ();
        give_up f ~shard ~row
      in
      let stats =
        run ~on_crash n f (fun ~shard ~row ->
            if shard = 1 && row = 7 then failwith "boom" else step f ~shard ~row)
      in
      check (label ^ ": on_crash saw the exception once") true
        (Atomic.get crashes = [ (1, 7, Failure "boom") ]);
      check_cursors ~label f (fun s -> if s = 1 then 7 else rows.(s));
      check (label ^ ": rows_run counts the rows that ran") true
        (rows_run stats = total - (rows.(1) - 7)))
    slot_counts

(* Once every token has retired, a run whose [finished] never holds
   must fail instead of spinning: the coordinator's quiescence sweep.
   One slot has no workers to go quiescent, so the sweep starts at 2. *)
let quiescence_sweep_fails_unfinished () =
  List.iter
    (fun n ->
      let f = fake () in
      match
        Workpool.with_pool n (fun pool ->
            Sched.run pool ~clock:Unix.gettimeofday ~rows ~run_row:(step f)
              ~on_crash:(fun ~shard:_ ~row:_ _ -> ())
              ~consume:(fun () -> false)
              ~finished:(fun () -> false))
      with
      | _ -> Alcotest.failf "%d slots: an unfinished run returned" n
      | exception Failure msg ->
          check
            (Printf.sprintf "%d slots: failure names the exited workers" n)
            true
            (msg = "epoch serving: workers exited without completing their rows");
          check
            (Printf.sprintf "%d slots: every row ran first" n)
            true
            (Atomic.get f.settled = total))
    [ 2; 3; 4 ]

let () =
  Alcotest.run "sched"
    [ ( "sched",
        [ Alcotest.test_case "every row once, in shard order, at 1-4 slots"
            `Quick exactly_once_in_order;
          Alcotest.test_case "a blocked row is retried until it runs" `Quick
            blocked_row_is_retried;
          Alcotest.test_case "Retire stops one shard and nothing else" `Quick
            retire_stops_one_shard;
          Alcotest.test_case "on_crash sees run_row's exception" `Quick
            crash_reaches_on_crash;
          Alcotest.test_case "quiescence sweep fails an unfinished run" `Quick
            quiescence_sweep_fails_unfinished;
        ] );
    ]
