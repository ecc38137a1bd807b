(* Unit and property tests for the common substrate: values, rows,
   conditions, traces, the deterministic PRNG and counters. *)

open Ccv_common

let check = Alcotest.(check bool)

(* ---------------- Value ---------------- *)

let value_tests =
  [ Alcotest.test_case "null sorts first" `Quick (fun () ->
        check "null < int" true (Value.compare Value.Null (Value.Int 0) < 0);
        check "null < str" true (Value.compare Value.Null (Value.Str "") < 0);
        check "null = null" true (Value.compare Value.Null Value.Null = 0));
    Alcotest.test_case "cross-numeric comparison" `Quick (fun () ->
        check "2 = 2.0" true (Value.compare (Value.Int 2) (Value.Float 2.0) = 0);
        check "2 < 2.5" true (Value.compare (Value.Int 2) (Value.Float 2.5) < 0);
        check "3.5 > 3" true (Value.compare (Value.Float 3.5) (Value.Int 3) > 0));
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        check "int add" true (Value.add (Value.Int 2) (Value.Int 3) = Value.Int 5);
        check "mixed add" true
          (Value.add (Value.Int 2) (Value.Float 0.5) = Value.Float 2.5);
        check "concat" true
          (Value.concat (Value.Str "A") (Value.Str "B") = Value.Str "AB");
        (try
           ignore (Value.add (Value.Str "X") (Value.Int 1));
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
    Alcotest.test_case "of_literal" `Quick (fun () ->
        check "string" true (Value.of_literal "'HELLO'" = Some (Value.Str "HELLO"));
        check "int" true (Value.of_literal "42" = Some (Value.Int 42));
        check "float" true (Value.of_literal "4.5" = Some (Value.Float 4.5));
        check "null" true (Value.of_literal "NULL" = Some Value.Null);
        check "bool" true (Value.of_literal "true" = Some (Value.Bool true));
        check "garbage" true (Value.of_literal "12x" = None));
    Alcotest.test_case "conforms and defaults" `Quick (fun () ->
        check "null conforms to any" true (Value.conforms Value.Null Value.Tint);
        check "int conforms" true (Value.conforms (Value.Int 1) Value.Tint);
        check "str does not conform to int" false
          (Value.conforms (Value.Str "x") Value.Tint);
        check "default int" true (Value.default Value.Tint = Value.Int 0));
  ]

let value_gen =
  QCheck.Gen.(
    oneof
      [ return Value.Null;
        map (fun i -> Value.Int i) (int_range (-50) 50);
        map (fun f -> Value.Float (float_of_int f /. 4.)) (int_range (-40) 40);
        map (fun s -> Value.Str s) (string_size ~gen:(char_range 'A' 'E') (int_bound 4));
        map (fun b -> Value.Bool b) bool;
      ])

let value_arb = QCheck.make ~print:Value.show value_gen

let value_props =
  [ QCheck.Test.make ~name:"Value.compare is antisymmetric" ~count:300
      (QCheck.pair value_arb value_arb) (fun (a, b) ->
        let c1 = Value.compare a b and c2 = Value.compare b a in
        (c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0));
    QCheck.Test.make ~name:"Value.compare is transitive" ~count:300
      (QCheck.triple value_arb value_arb value_arb) (fun (a, b, c) ->
        let ( <= ) x y = Value.compare x y <= 0 in
        if a <= b && b <= c then a <= c else true);
    QCheck.Test.make ~name:"Value.equal agrees with compare = 0 (same type)"
      ~count:300 (QCheck.pair value_arb value_arb) (fun (a, b) ->
        match Value.ty_of a, Value.ty_of b with
        | Some ta, Some tb when Value.equal_ty ta tb ->
            Value.equal a b = (Value.compare a b = 0)
        | _ -> true);
    QCheck.Test.make ~name:"hash respects equal" ~count:300
      (QCheck.pair value_arb value_arb) (fun (a, b) ->
        if Value.equal a b then Value.hash a = Value.hash b else true);
    (* [show] renders without a formatter; it must stay byte-identical
       to the pretty-printer over every constructor, edge values
       included. *)
    QCheck.Test.make ~name:"Value.show agrees with Value.pp" ~count:1000
      (QCheck.make ~print:Value.show
         QCheck.Gen.(
           oneof
             [ value_gen;
               oneofl
                 [ Value.Float Float.nan; Value.Float Float.infinity;
                   Value.Float Float.neg_infinity; Value.Float (-0.);
                   Value.Float 0.; Value.Float 1e-300; Value.Float 1e300;
                   Value.Float 0.1; Value.Float 123456789.;
                   Value.Int max_int; Value.Int min_int;
                   Value.Str ""; Value.Str "say \"hi\"";
                   Value.Str "back\\slash"; Value.Str "line\nbreak\ttab\r";
                   Value.Str "\x00\x7f\x80\xc3\xa9\xff";
                   Value.Bool true; Value.Bool false; Value.Null;
                 ];
               map (fun i -> Value.Int i) int;
               map (fun f -> Value.Float f) float;
               map (fun s -> Value.Str s) (string_size (int_bound 40));
             ]))
      (fun v -> Value.show v = Fmt.str "%a" Value.pp v);
  ]

(* ---------------- Row ---------------- *)

let row_tests =
  [ Alcotest.test_case "of_list canonicalises and dedups" `Quick (fun () ->
        let r = Row.of_list [ ("a", Value.Int 1); ("A", Value.Int 2) ] in
        check "one field" true (List.length (Row.to_list r) = 1);
        check "first wins" true (Row.get r "A" = Some (Value.Int 1)));
    Alcotest.test_case "set appends or replaces" `Quick (fun () ->
        let r = Row.of_list [ ("A", Value.Int 1) ] in
        let r = Row.set r "B" (Value.Int 2) in
        let r = Row.set r "a" (Value.Int 9) in
        check "order" true (Row.fields r = [ "A"; "B" ]);
        check "replaced" true (Row.get r "A" = Some (Value.Int 9)));
    Alcotest.test_case "project pads with null, keeps requested order" `Quick
      (fun () ->
        let r = Row.of_list [ ("A", Value.Int 1); ("B", Value.Int 2) ] in
        let p = Row.project r [ "B"; "C" ] in
        check "order" true (Row.fields p = [ "B"; "C" ]);
        check "pad" true (Row.get p "C" = Some Value.Null));
    Alcotest.test_case "union is left-biased" `Quick (fun () ->
        let a = Row.of_list [ ("X", Value.Int 1) ] in
        let b = Row.of_list [ ("X", Value.Int 2); ("Y", Value.Int 3) ] in
        let u = Row.union a b in
        check "left wins" true (Row.get u "X" = Some (Value.Int 1));
        check "right added" true (Row.get u "Y" = Some (Value.Int 3)));
    Alcotest.test_case "coerce reorders to declaration" `Quick (fun () ->
        let decls = [ Field.make "A" Value.Tint; Field.make "B" Value.Tstr ] in
        let r =
          Row.of_list
            [ ("B", Value.Str "x"); ("A", Value.Int 1); ("Z", Value.Int 9) ]
        in
        let c = Row.coerce r decls in
        check "fields" true (Row.fields c = [ "A"; "B" ]);
        check "conforms" true (Row.conforms c decls));
    Alcotest.test_case "equal_unordered" `Quick (fun () ->
        let a = Row.of_list [ ("A", Value.Int 1); ("B", Value.Int 2) ] in
        let b = Row.of_list [ ("B", Value.Int 2); ("A", Value.Int 1) ] in
        check "unordered equal" true (Row.equal_unordered a b);
        check "ordered not equal" false (Row.equal a b));
  ]

(* ---------------- Cond ---------------- *)

let cond_tests =
  let row = Row.of_list [ ("AGE", Value.Int 30); ("NAME", Value.Str "X") ] in
  let env v = if v = "LIMIT" then Some (Value.Int 25) else None in
  [ Alcotest.test_case "eval with fields and vars" `Quick (fun () ->
        let c = Cond.Cmp (Cond.Gt, Cond.Field "AGE", Cond.Var "LIMIT") in
        check "30 > :25" true (Cond.eval ~env row c));
    Alcotest.test_case "null comparisons are false except eq-null" `Quick
      (fun () ->
        let r = Row.of_list [ ("A", Value.Null) ] in
        check "null < 1 is false" false
          (Cond.eval ~env:Cond.no_env r
             (Cond.Cmp (Cond.Lt, Cond.Field "A", Cond.Const (Value.Int 1))));
        check "null = null" true
          (Cond.eval ~env:Cond.no_env r
             (Cond.Cmp (Cond.Eq, Cond.Field "A", Cond.Const Value.Null)));
        check "is_null" true
          (Cond.eval ~env:Cond.no_env r (Cond.Is_null (Cond.Field "A"))));
    Alcotest.test_case "split/conj round-trip" `Quick (fun () ->
        let a = Cond.eq_field_const "A" (Value.Int 1) in
        let b = Cond.eq_field_const "B" (Value.Int 2) in
        let c = Cond.And (a, Cond.And (b, Cond.True)) in
        check "two conjuncts" true (List.length (Cond.split_conjuncts c) = 2);
        check "true yields none" true (Cond.split_conjuncts Cond.True = []);
        check "conj [] = True" true (Cond.conj [] = Cond.True));
    Alcotest.test_case "cand drops True" `Quick (fun () ->
        let a = Cond.eq_field_const "A" (Value.Int 1) in
        check "left" true (Cond.cand Cond.True a = a);
        check "right" true (Cond.cand a Cond.True = a));
    Alcotest.test_case "fields_to_vars" `Quick (fun () ->
        let c = Cond.Cmp (Cond.Eq, Cond.Field "AGE", Cond.Const (Value.Int 1)) in
        let c' = Cond.fields_to_vars (fun f -> "EMP." ^ f) c in
        check "no fields left" true (Cond.fields c' = []);
        check "var introduced" true (Cond.vars c' = [ "EMP.AGE" ]));
    Alcotest.test_case "subst_vars folds constants" `Quick (fun () ->
        let c = Cond.Cmp (Cond.Gt, Cond.Field "AGE", Cond.Var "LIMIT") in
        let c' = Cond.subst_vars env c in
        check "no vars left" true (Cond.vars c' = []));
    Alcotest.test_case "unbound raises" `Quick (fun () ->
        try
          ignore
            (Cond.eval ~env:Cond.no_env row
               (Cond.Cmp (Cond.Eq, Cond.Var "NOPE", Cond.Const Value.Null)));
          Alcotest.fail "expected Unbound"
        with Cond.Unbound _ -> ());
  ]

(* ---------------- Io_trace ---------------- *)

let trace_tests =
  [ Alcotest.test_case "divergence position" `Quick (fun () ->
        let a = [ Io_trace.Terminal_out "X"; Io_trace.Terminal_out "Y" ] in
        let b = [ Io_trace.Terminal_out "X"; Io_trace.Terminal_out "Z" ] in
        match Io_trace.first_divergence a b with
        | Some (1, Some _, Some _) -> ()
        | _ -> Alcotest.fail "expected divergence at 1");
    Alcotest.test_case "builder preserves order" `Quick (fun () ->
        let b = Io_trace.Builder.create () in
        Io_trace.Builder.emit b (Io_trace.Terminal_out "1");
        Io_trace.Builder.emit b (Io_trace.File_write ("f", "2"));
        check "order" true
          (Io_trace.Builder.contents b
          = [ Io_trace.Terminal_out "1"; Io_trace.File_write ("f", "2") ]));
    Alcotest.test_case "terminal_lines filters" `Quick (fun () ->
        let t =
          [ Io_trace.Terminal_out "A"; Io_trace.Terminal_in "B";
            Io_trace.File_write ("f", "C"); Io_trace.Terminal_out "D";
          ]
        in
        check "lines" true (Io_trace.terminal_lines t = [ "A"; "D" ]));
  ]

(* ---------------- Prng ---------------- *)

let prng_tests =
  [ Alcotest.test_case "deterministic given a seed" `Quick (fun () ->
        let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
        check "same stream" true
          (List.init 20 (fun _ -> Prng.int a 1000)
          = List.init 20 (fun _ -> Prng.int b 1000)));
    Alcotest.test_case "shuffle permutes" `Quick (fun () ->
        let rng = Prng.create ~seed:3 in
        let l = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
        let s = Prng.shuffle rng l in
        check "same multiset" true (List.sort compare s = List.sort compare l));
    Alcotest.test_case "pick_weighted single bucket" `Quick (fun () ->
        let rng = Prng.create ~seed:1 in
        let all_b =
          List.init 50 (fun _ -> Prng.pick_weighted rng [ (1, "b") ])
        in
        check "only b" true (List.for_all (String.equal "b") all_b));
  ]

let prng_props =
  [ QCheck.Test.make ~name:"Prng.int within bounds" ~count:500
      QCheck.(pair (int_range 1 10_000) (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Prng.create ~seed in
        let v = Prng.int rng bound in
        v >= 0 && v < bound);
    QCheck.Test.make ~name:"Prng.int_in within range" ~count:500
      QCheck.(
        triple (int_range 1 10_000) (int_range (-50) 50) (int_range 0 100))
      (fun (seed, lo, span) ->
        let rng = Prng.create ~seed in
        let v = Prng.int_in rng lo (lo + span) in
        v >= lo && v <= lo + span);
  ]

(* ---------------- Counters / Tablefmt / Status ---------------- *)

let misc_tests =
  [ Alcotest.test_case "counters accumulate and reset" `Quick (fun () ->
        let c = Counters.create () in
        Counters.record_read c;
        Counters.record_reads c 4;
        Counters.record_write c;
        check "reads" true (Counters.reads c = 5);
        check "writes" true (Counters.writes c = 1);
        check "total" true (Counters.total c = 6);
        Counters.reset c;
        check "reset" true (Counters.total c = 0));
    Alcotest.test_case "table renders all cells" `Quick (fun () ->
        let t = Tablefmt.render [ "a"; "b" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
        check "has 333" true
          (List.exists
             (fun line -> String.length line > 0 && String.contains line '3')
             (String.split_on_char '\n' t)));
    Alcotest.test_case "status codes are stable and distinct" `Quick (fun () ->
        let codes =
          List.map Status.code
            [ Status.Ok; Status.Not_found; Status.End_of_set;
              Status.No_currency; Status.Duplicate_key "x";
              Status.Constraint_violation "y"; Status.Invalid_request "z";
            ]
        in
        check "distinct" true
          (List.length (List.sort_uniq compare codes) = List.length codes));
  ]

(* ---------------- Workpool ---------------- *)

let workpool_tests =
  [ Alcotest.test_case "step runs one task per slot" `Quick (fun () ->
        Workpool.with_pool 4 (fun p ->
            check "size" true (Workpool.size p = 4);
            let r = Workpool.step p (fun w -> w * 10) in
            check "results land by slot" true
              (Array.to_list r = [ 0; 10; 20; 30 ])));
    Alcotest.test_case "workers persist across many steps" `Quick (fun () ->
        Workpool.with_pool 3 (fun p ->
            for i = 1 to 50 do
              let r = Workpool.step p (fun w -> w + i) in
              check "tick results" true (Array.to_list r = [ i; i + 1; i + 2 ])
            done));
    Alcotest.test_case "nested step falls back inline (no deadlock)" `Quick
      (fun () ->
        Workpool.with_pool 2 (fun p ->
            let r =
              Workpool.step p (fun w ->
                  Array.to_list (Workpool.step p (fun v -> (w, v))))
            in
            check "outer width" true (Array.length r = 2);
            Array.iteri
              (fun w inner ->
                check "inner ran inline" true (inner = [ (w, 0); (w, 1) ]))
              r));
    Alcotest.test_case "worker exception surfaces as Worker_error" `Quick
      (fun () ->
        Workpool.with_pool 4 (fun p ->
            (try
               ignore
                 (Workpool.step p (fun w ->
                      if w = 2 then failwith "boom" else w));
               Alcotest.fail "expected Worker_error"
             with Workpool.Worker_error { worker = 2; _ } -> ());
            (* the failed step must not poison the pool *)
            let r = Workpool.step p (fun w -> w) in
            check "pool still serves" true (Array.to_list r = [ 0; 1; 2; 3 ])));
    Alcotest.test_case "map_list preserves input order" `Quick (fun () ->
        Workpool.with_pool 3 (fun p ->
            let xs = List.init 23 Fun.id in
            check "order" true
              (Workpool.map_list p (fun x -> x * x) xs
              = List.map (fun x -> x * x) xs)));
    Alcotest.test_case "map_list respects max_workers" `Quick (fun () ->
        Workpool.with_pool 4 (fun p ->
            let xs = List.init 37 Fun.id in
            let expect = List.map (fun x -> x + 1) xs in
            (* capped below, at, and above the pool size — all the
               same list, same order *)
            List.iter
              (fun cap ->
                check
                  (Printf.sprintf "cap %d" cap)
                  true
                  (Workpool.map_list ~max_workers:cap p (fun x -> x + 1) xs
                  = expect))
              [ 1; 2; 4; 16 ]));
    Alcotest.test_case "submit/drain joins async jobs" `Quick (fun () ->
        Workpool.with_pool 4 (fun p ->
            let out = Array.make 4 0 in
            check "quiescent before submit" true (Workpool.quiescent p);
            Workpool.submit p (fun w -> out.(w) <- w * 11);
            Workpool.drain p;
            check "quiescent after drain" true (Workpool.quiescent p);
            (* slot 0 stays with the caller *)
            check "jobs ran on workers" true
              (Array.to_list out = [ 0; 11; 22; 33 ]);
            (* the pool still barrier-steps afterwards *)
            let r = Workpool.step p (fun w -> w) in
            check "pool still serves" true (Array.to_list r = [ 0; 1; 2; 3 ])));
    Alcotest.test_case "submit failure surfaces at drain" `Quick (fun () ->
        Workpool.with_pool 3 (fun p ->
            Workpool.submit p (fun w -> if w = 2 then failwith "boom");
            (try
               Workpool.drain p;
               Alcotest.fail "expected Worker_error"
             with Workpool.Worker_error { worker = 2; _ } -> ());
            (* the failure is consumed; the pool is reusable *)
            Workpool.submit p (fun _ -> ());
            Workpool.drain p));
    Alcotest.test_case "idle_times is per slot, slot 0 zero" `Quick (fun () ->
        (* a clock that ticks on every read: each park a worker takes
           shows up as at least one tick on its own slot *)
        let ticks = Atomic.make 0 in
        let clock () = float (Atomic.fetch_and_add ticks 1) in
        Workpool.with_pool ~clock 3 (fun p ->
            ignore (Workpool.step p (fun w -> w));
            let per = Workpool.idle_times p in
            check "one entry per slot" true (Array.length per = 3);
            check "coordinator never parks" true (per.(0) = 0.);
            check "workers' parks are charged to their slots" true
              (per.(1) >= 1. && per.(2) >= 1.)));
    Alcotest.test_case "shutdown is idempotent" `Quick (fun () ->
        let p = Workpool.create 3 in
        ignore (Workpool.step p (fun w -> w));
        Workpool.shutdown p;
        Workpool.shutdown p);
  ]

(* ---------------- Epoch reorder buffer ---------------- *)

let epoch_tests =
  [ Alcotest.test_case "rows release only when complete" `Quick (fun () ->
        let b = Epoch.create ~rows:[| 2; 1; 2 |] in
        check "two rows total" true (Epoch.total_rows b = 2);
        Epoch.publish b ~shard:0 ~epoch:0 "a0";
        Epoch.publish b ~shard:2 ~epoch:0 "c0";
        check "row 0 incomplete" true (Epoch.pop_row b = None);
        Epoch.publish b ~shard:1 ~epoch:0 "b0";
        check "row 0 pops in shard order" true
          (Epoch.pop_row b = Some (0, [ (0, "a0"); (1, "b0"); (2, "c0") ]));
        (* shard 1 has no row 1: the row completes without it *)
        Epoch.publish b ~shard:2 ~epoch:1 "c1";
        Epoch.publish b ~shard:0 ~epoch:1 "a1";
        check "row 1 skips the short shard" true
          (Epoch.pop_row b = Some (1, [ (0, "a1"); (2, "c1") ]));
        check "exhausted" true
          (Epoch.pop_row b = None && Epoch.frontier b = 2));
    Alcotest.test_case "publish rejects double and out-of-range" `Quick
      (fun () ->
        let b = Epoch.create ~rows:[| 1 |] in
        Epoch.publish b ~shard:0 ~epoch:0 "x";
        (try
           Epoch.publish b ~shard:0 ~epoch:0 "y";
           Alcotest.fail "double publish accepted"
         with Invalid_argument _ -> ());
        try
          Epoch.publish b ~shard:0 ~epoch:1 "z";
          Alcotest.fail "out-of-range publish accepted"
        with Invalid_argument _ -> ());
    Alcotest.test_case "cross-domain publish drains in canonical order"
      `Quick (fun () ->
        (* two publishing domains split a seed-shuffled list of
           disjoint cells while this domain pops concurrently: every
           row comes out exactly once, in (epoch, shard) order, with
           the payload its publisher built *)
        for seed = 1 to 20 do
          let rng = Prng.create ~seed in
          let rows = Array.init 5 (fun _ -> Prng.int rng 40) in
          let all =
            Array.to_list rows
            |> List.mapi (fun s n -> List.init n (fun e -> (s, e)))
            |> List.concat |> Prng.shuffle rng
          in
          let b = Epoch.create ~rows in
          let publisher parity =
            Domain.spawn (fun () ->
                List.iteri
                  (fun i (s, e) ->
                    if i mod 2 = parity then
                      Epoch.publish b ~shard:s ~epoch:e (s, e))
                  all)
          in
          let d0 = publisher 0 and d1 = publisher 1 in
          let drained = ref [] in
          while Epoch.frontier b < Epoch.total_rows b do
            match Epoch.pop_row b with
            | None -> Domain.cpu_relax ()
            | Some (e, cells) ->
                List.iter (fun (s, v) -> drained := (e, s, v) :: !drained) cells
          done;
          Domain.join d0;
          Domain.join d1;
          (* cells are distinct, so (epoch, shard) order is a sort *)
          let canonical =
            List.sort compare (List.map (fun (s, e) -> (e, s, (s, e))) all)
          in
          check
            (Printf.sprintf "seed %d: exactly once, canonical order" seed)
            true
            (List.rev !drained = canonical)
        done);
    Alcotest.test_case "racing publishes to one cell: exactly one wins"
      `Quick (fun () ->
        (* both domains publish every cell, in the same order, after a
           common start signal: each cell keeps exactly one payload and
           the loser of each race gets [Invalid_argument] *)
        let n = 2000 in
        let b = Epoch.create ~rows:[| n |] in
        let go = Atomic.make false in
        let racer id =
          Domain.spawn (fun () ->
              while not (Atomic.get go) do
                Domain.cpu_relax ()
              done;
              let wins = ref 0 in
              for e = 0 to n - 1 do
                match Epoch.publish b ~shard:0 ~epoch:e id with
                | () -> incr wins
                | exception Invalid_argument _ -> ()
              done;
              !wins)
        in
        let d0 = racer 0 and d1 = racer 1 in
        Atomic.set go true;
        let w0 = Domain.join d0 and w1 = Domain.join d1 in
        check "one winner per cell" true (w0 + w1 = n);
        let kept = Array.make 2 0 in
        for _ = 1 to n do
          match Epoch.pop_row b with
          | Some (_, [ (0, id) ]) -> kept.(id) <- kept.(id) + 1
          | _ -> Alcotest.fail "row missing or malformed"
        done;
        check "each domain's wins are the payloads kept" true
          (kept = [| w0; w1 |]));
  ]

let epoch_props =
  [ QCheck.Test.make
      ~name:"any publish interleaving drains in canonical order" ~count:200
      QCheck.(
        pair (int_range 1 1000)
          (list_of_size Gen.(int_range 1 6) (int_range 0 4)))
      (fun (seed, rows_l) ->
        (* rows_l.(s) epoch rows for shard s; publish them in a
           seed-shuffled physical order and check the drain is the
           canonical epoch-major, shard-minor sequence regardless *)
        let rows = Array.of_list rows_l in
        let all =
          Array.to_list rows
          |> List.mapi (fun s n -> List.init n (fun e -> (s, e)))
          |> List.concat
        in
        let rng = Prng.create ~seed in
        let shuffled = Prng.shuffle rng all in
        let b = Epoch.create ~rows in
        let drained = ref [] in
        let drain () =
          let continue_ = ref true in
          while !continue_ do
            match Epoch.pop_row b with
            | None -> continue_ := false
            | Some (e, cells) ->
                drained :=
                  List.rev_append
                    (List.map (fun (s, ()) -> (e, s)) cells)
                    !drained
          done
        in
        (* interleave draining with publishing, as the coordinator
           does, instead of draining only at the end *)
        List.iter
          (fun (s, e) ->
            Epoch.publish b ~shard:s ~epoch:e ();
            drain ())
          shuffled;
        drain ();
        let canonical =
          List.concat
            (List.init (Epoch.total_rows b) (fun e ->
                 List.filter_map
                   (fun s -> if rows.(s) > e then Some (e, s) else None)
                   (List.init (Array.length rows) Fun.id)))
        in
        List.rev !drained = canonical);
  ]

(* ---------------- Work-stealing deques ---------------- *)

let stealqueue_tests =
  [ Alcotest.test_case "owner pops LIFO" `Quick (fun () ->
        let q = Stealqueue.create ~slots:2 in
        Stealqueue.push q ~slot:0 1;
        Stealqueue.push q ~slot:0 2;
        check "last in first out" true (Stealqueue.pop q ~slot:0 = Some 2);
        check "then older" true (Stealqueue.pop q ~slot:0 = Some 1);
        check "empty" true (Stealqueue.pop q ~slot:0 = None));
    Alcotest.test_case "push_back parks at the tail" `Quick (fun () ->
        let q = Stealqueue.create ~slots:2 in
        Stealqueue.push q ~slot:0 1;
        Stealqueue.push_back q ~slot:0 99;
        Stealqueue.push q ~slot:0 2;
        check "head is newest push" true (Stealqueue.pop q ~slot:0 = Some 2);
        check "parked entry comes last" true
          (Stealqueue.pop q ~slot:0 = Some 1
          && Stealqueue.pop q ~slot:0 = Some 99));
    Alcotest.test_case "steal takes the victim's oldest" `Quick (fun () ->
        let q = Stealqueue.create ~slots:2 in
        Stealqueue.push q ~slot:0 1;
        Stealqueue.push q ~slot:0 2;
        check "fifo from the thief's side" true
          (Stealqueue.steal q ~thief:1 = Some 1);
        check "owner keeps the hot end" true
          (Stealqueue.pop q ~slot:0 = Some 2));
    Alcotest.test_case "claim prefers its own deque" `Quick (fun () ->
        let q = Stealqueue.create ~slots:2 in
        Stealqueue.push q ~slot:0 10;
        Stealqueue.push q ~slot:1 20;
        check "own first" true (Stealqueue.claim q ~slot:0 = Stealqueue.Own 10);
        check "then steal" true
          (Stealqueue.claim q ~slot:0 = Stealqueue.Stolen 20);
        check "then empty" true (Stealqueue.claim q ~slot:0 = Stealqueue.Empty));
    Alcotest.test_case "cross-domain stealing loses nothing" `Quick (fun () ->
        (* one owner pushing and popping, one thief stealing: every
           token is taken exactly once across the two domains *)
        let n = 2000 in
        let q = Stealqueue.create ~slots:2 in
        let stolen = ref [] in
        let thief =
          Domain.spawn (fun () ->
              let taken = ref 0 in
              (* bounded scan: stop once the owner signals exhaustion
                 by pushing the sentinel *)
              let stop = ref false in
              while not !stop do
                match Stealqueue.steal q ~thief:1 with
                | Some x when x = -1 -> stop := true
                | Some x ->
                    stolen := x :: !stolen;
                    incr taken
                | None -> Domain.cpu_relax ()
              done;
              !taken)
        in
        let popped = ref [] in
        for i = 0 to n - 1 do
          Stealqueue.push q ~slot:0 i;
          if i mod 2 = 0 then
            match Stealqueue.pop q ~slot:0 with
            | Some x -> popped := x :: !popped
            | None -> ()
        done;
        let rec drain () =
          match Stealqueue.pop q ~slot:0 with
          | Some x ->
              popped := x :: !popped;
              drain ()
          | None -> ()
        in
        drain ();
        Stealqueue.push q ~slot:0 (-1);
        let _ = Domain.join thief in
        (* the thief may leave the sentinel unstolen if the owner's
           drain raced it away — repush until joined handles it; here
           the sentinel was pushed after the owner's final drain, so
           only the thief can have taken it *)
        let all = List.sort Int.compare (!popped @ !stolen) in
        check "every token exactly once" true (all = List.init n Fun.id));
  ]

let stealqueue_props =
  [ QCheck.Test.make
      ~name:"random claim/steal/push interleavings lose and duplicate nothing"
      ~count:300
      QCheck.(
        triple (int_range 1 4) (int_range 0 40) (small_list (int_range 0 5)))
      (fun (slots, tokens, ops) ->
        (* seed [tokens] tokens round-robin, then replay [ops] as a
           mix of claims and re-pushes from rotating slots; finish by
           draining every deque.  Multiset in = multiset out. *)
        let q = Stealqueue.create ~slots in
        for i = 0 to tokens - 1 do
          Stealqueue.push q ~slot:(i mod slots) i
        done;
        let held = ref [] and out = ref [] in
        List.iteri
          (fun i op ->
            let slot = i mod slots in
            match op with
            | 0 | 1 -> (
                match Stealqueue.claim q ~slot with
                | Stealqueue.Own x | Stealqueue.Stolen x ->
                    held := x :: !held
                | Stealqueue.Empty -> ())
            | 2 -> (
                (* re-enqueue something we hold, at the head *)
                match !held with
                | x :: rest ->
                    held := rest;
                    Stealqueue.push q ~slot x
                | [] -> ())
            | 3 -> (
                (* park something we hold at the tail *)
                match !held with
                | x :: rest ->
                    held := rest;
                    Stealqueue.push_back q ~slot x
                | [] -> ())
            | _ -> (
                match Stealqueue.steal q ~thief:slot with
                | Some x -> out := x :: !out
                | None -> ()))
          ops;
        for slot = 0 to slots - 1 do
          let rec drain () =
            match Stealqueue.pop q ~slot with
            | Some x ->
                out := x :: !out;
                drain ()
            | None -> ()
          in
          drain ()
        done;
        check "queue empty after drain" true (Stealqueue.length q = 0);
        List.sort Int.compare (!out @ !held) = List.init tokens Fun.id);
  ]

(* ---------------- Counters under concurrency ---------------- *)

(* The counter's contract is that several domains may charge one
   counter without losing increments; the serving coordinator relies
   on it when it charges a phase counter from outcomes. *)
let counter_concurrency_tests =
  [ Alcotest.test_case "domains charging one counter lose nothing" `Quick
      (fun () ->
        let t = Counters.create () in
        let per_domain = 5_000 in
        let worker () =
          for i = 1 to per_domain do
            if i mod 5 = 0 then Counters.record_write t
            else Counters.record_reads t 2
          done
        in
        let ds = List.init 2 (fun _ -> Domain.spawn worker) in
        worker ();
        List.iter Domain.join ds;
        let writes = 3 * (per_domain / 5) in
        check "writes" true (Counters.writes t = writes);
        check "reads" true (Counters.reads t = 2 * ((3 * per_domain) - writes));
        check "total" true
          (Counters.total t = Counters.reads t + Counters.writes t));
  ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "common"
    [ ("value", value_tests);
      qsuite "value-props" value_props;
      ("row", row_tests);
      ("cond", cond_tests);
      ("trace", trace_tests);
      ("prng", prng_tests);
      qsuite "prng-props" prng_props;
      ("misc", misc_tests);
      ("workpool", workpool_tests);
      ("epoch", epoch_tests);
      qsuite "epoch-props" epoch_props;
      ("stealqueue", stealqueue_tests);
      qsuite "stealqueue-props" stealqueue_props;
      ("counters-concurrency", counter_concurrency_tests);
    ]
