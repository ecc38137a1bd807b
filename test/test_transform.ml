(* Transform layer: restructuring operators on schemas, the data
   translator, change classification, and inverse analysis. *)

open Ccv_common
open Ccv_model
open Ccv_transform
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

let apply op = Schema_change.apply W.Company.schema op

let schema_change_tests =
  [ Alcotest.test_case "rename entity updates associations and constraints"
      `Quick (fun () ->
        match apply (Schema_change.Rename_entity { from_ = "EMP"; to_ = "STAFF" }) with
        | Ok s ->
            check "entity renamed" true (Semantic.find_entity s "STAFF" <> None);
            let a = Semantic.find_assoc_exn s W.Company.div_emp in
            check "assoc right side" true (Field.name_equal a.right "STAFF")
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "rename field keeps key membership" `Quick (fun () ->
        match
          apply
            (Schema_change.Rename_field
               { entity = "EMP"; from_ = "EMP-NAME"; to_ = "FULL-NAME" })
        with
        | Ok s ->
            let e = Semantic.find_entity_exn s "EMP" in
            check "key follows" true (e.key = [ "FULL-NAME" ])
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "dropping a key field refused" `Quick (fun () ->
        match apply (Schema_change.Drop_field { entity = "EMP"; field = "EMP-NAME" }) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected refusal");
    Alcotest.test_case "interpose reshapes schema" `Quick (fun () ->
        match apply interpose_op with
        | Ok s ->
            let dept = Semantic.find_entity_exn s "DEPT" in
            check "dept keyed by owner key + group" true
              (dept.key = [ "DIV-NAME"; "DEPT-NAME" ]);
            let emp = Semantic.find_entity_exn s "EMP" in
            check "emp lost DEPT-NAME" false (Field.mem emp.fields "DEPT-NAME");
            check "old assoc gone" true
              (Semantic.find_assoc s W.Company.div_emp = None);
            check "totality split" true
              (List.mem (Semantic.Total_right W.Company.dept_emp)
                 s.Semantic.constraints)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "interpose cannot group a key field" `Quick (fun () ->
        match
          apply
            (Schema_change.Interpose
               { through = W.Company.div_emp;
                 new_entity = "X";
                 group_by = [ "EMP-NAME" ];
                 left_assoc = "A1";
                 right_assoc = "A2";
               })
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected refusal");
    Alcotest.test_case "collapse undoes interpose on the schema" `Quick
      (fun () ->
        let s1 = Schema_change.apply_exn W.Company.schema interpose_op in
        match
          Schema_change.apply s1
            (Schema_change.Collapse
               { left_assoc = W.Company.div_dept;
                 right_assoc = W.Company.dept_emp;
                 removed_entity = W.Company.dept;
                 restored_assoc = W.Company.div_emp;
               })
        with
        | Ok s2 ->
            let emp = Semantic.find_entity_exn s2 "EMP" in
            check "emp regained DEPT-NAME" true (Field.mem emp.fields "DEPT-NAME");
            check "assoc restored" true
              (Semantic.find_assoc s2 W.Company.div_emp <> None)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "classification covers all operators" `Quick (fun () ->
        check "interpose is structural" true
          (Schema_change.classify interpose_op = Schema_change.Structural_split);
        check "rename class" true
          (Schema_change.classify
             (Schema_change.Rename_entity { from_ = "A"; to_ = "B" })
          = Schema_change.Renaming));
  ]

let translate op db = Data_translate.translate db op

let data_tests =
  [ Alcotest.test_case "add_field fills the default everywhere" `Quick
      (fun () ->
        let db = W.Company.instance () in
        match
          translate
            (Schema_change.Add_field
               { entity = "EMP";
                 field = Field.make "SALARY" Value.Tint;
                 default = Value.Int 100;
               })
            db
        with
        | Ok (db', _) ->
            check "all filled" true
              (List.for_all
                 (fun r -> Row.get r "SALARY" = Some (Value.Int 100))
                 (Sdb.rows_silent db' "EMP"))
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "interpose groups distinct (division, dept) pairs"
      `Quick (fun () ->
        let db = W.Company.instance () in
        match translate interpose_op db with
        | Ok (db', _) ->
            (* MACHINERY: SALES+DESIGN; CHEMICALS: SALES+LABS -> 4 depts *)
            check "4 depts" true (List.length (Sdb.rows_silent db' "DEPT") = 4);
            check "emp count preserved" true
              (List.length (Sdb.rows_silent db' "EMP")
              = List.length (Sdb.rows_silent db "EMP"));
            check "dept-emp links = old div-emp links" true
              (List.length (Sdb.links_silent db' W.Company.dept_emp)
              = List.length (Sdb.links_silent db W.Company.div_emp));
            check "consistent" true (Sdb.validate db' = [])
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "drop_field warns about information loss" `Quick
      (fun () ->
        let db = W.Company.instance () in
        match
          translate (Schema_change.Drop_field { entity = "EMP"; field = "AGE" }) db
        with
        | Ok (_, warnings) -> check "warned" true (warnings <> [])
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "add_constraint reports violating data" `Quick
      (fun () ->
        let db = W.School.instance () in
        (* every course is offered at most twice already; a limit of 1
           makes existing data violate *)
        match
          translate
            (Schema_change.Add_constraint
               (Semantic.Participation_limit
                  { assoc = W.School.offering; per_left_max = 1 }))
            db
        with
        | Ok (_, warnings) -> check "violations surfaced" true (warnings <> [])
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "restrict drops instances and their links" `Quick
      (fun () ->
        let db = W.Company.instance () in
        let op =
          Schema_change.Restrict_extension
            { entity = "EMP";
              qual =
                Cond.Cmp
                  (Cond.Ge, Cond.Field "AGE", Cond.Const (Value.Int 45));
            }
        in
        match translate op db with
        | Ok (db', warnings) ->
            check "instances removed" true
              (List.length (Sdb.rows_silent db' "EMP")
              < List.length (Sdb.rows_silent db "EMP"));
            check "their links dropped" true
              (List.length (Sdb.links_silent db' W.Company.div_emp)
              = List.length (Sdb.rows_silent db' "EMP"));
            check "warned" true (warnings <> [])
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "renames preserve contents modulo names" `Quick
      (fun () ->
        let db = W.Company.instance () in
        match
          translate (Schema_change.Rename_entity { from_ = "EMP"; to_ = "STAFF" }) db
        with
        | Ok (db', _) ->
            check "same volume" true
              (Sdb.total_instances db' = Sdb.total_instances db);
            check "rows moved" true
              (List.length (Sdb.rows_silent db' "STAFF")
              = List.length (Sdb.rows_silent db "EMP"))
        | Error e -> Alcotest.fail e);
  ]

let inverse_tests =
  [ Alcotest.test_case "verdicts per operator" `Quick (fun () ->
        let v op = Inverse.invert W.Company.schema op in
        (match v (Schema_change.Rename_entity { from_ = "EMP"; to_ = "X" }) with
        | Inverse.Invertible _ -> ()
        | _ -> Alcotest.fail "rename should invert");
        (match v (Schema_change.Drop_field { entity = "EMP"; field = "AGE" }) with
        | Inverse.Lossy _ -> ()
        | _ -> Alcotest.fail "drop should be lossy");
        match
          v (Schema_change.Drop_constraint (Semantic.Total_right W.Company.div_emp))
        with
        | Inverse.Conditional _ -> ()
        | _ -> Alcotest.fail "drop-constraint should be conditional");
    Alcotest.test_case "interpose/collapse round-trips instances" `Quick
      (fun () ->
        match Inverse.roundtrip (W.Company.instance ()) interpose_op with
        | Some true -> ()
        | Some false -> Alcotest.fail "contents not restored"
        | None -> Alcotest.fail "expected an inverse");
  ]

(* Property: on random scaled instances, the interpose translation
   preserves member rows, produces consistent instances and keeps one
   right-assoc link per original link. *)
let interpose_prop =
  QCheck.Test.make ~name:"interpose translation invariants" ~count:40
    QCheck.(pair (int_range 1 1000) (int_range 5 60))
    (fun (seed, n) ->
      let db = W.Company.scaled ~seed ~n in
      match Data_translate.translate db interpose_op with
      | Error _ -> false
      | Ok (db', _) ->
          List.length (Sdb.rows_silent db' "EMP") = n
          && List.length (Sdb.links_silent db' W.Company.dept_emp)
             = List.length (Sdb.links_silent db W.Company.div_emp)
          && Sdb.validate db' = [])

let roundtrip_prop =
  QCheck.Test.make ~name:"rename round-trip on random instances" ~count:40
    QCheck.(pair (int_range 1 1000) (int_range 5 40))
    (fun (seed, n) ->
      let db = W.Company.scaled ~seed ~n in
      Inverse.roundtrip db
        (Schema_change.Rename_field
           { entity = "EMP"; from_ = "AGE"; to_ = "YEARS" })
      = Some true)

(* ------------------------------------------------------------------ *)
(* The incremental loader's indexes against the per-row scans they
   replaced.  [scan_load] is a test-local copy of the scan loader
   (network and hierarchical paths, lenient mode, one call into a fresh
   replica): every member row folded over all of its association's
   links for its BY VALUE owner (the last match wins), every child row
   searched them for its parent (the first match wins), and keys
   matched under [List.compare Value.compare], so [Int 1] names the row
   keyed [Float 1.0]. *)

module Ndb = Ccv_network.Ndb
module Hdb = Ccv_hier.Hdb

let key_repr key = String.concat "|" (List.map Value.show key)

let is_total schema (a : Semantic.assoc) =
  (match (Semantic.find_entity_exn schema a.right).kind with
  | Semantic.Characterizing owner -> Field.name_equal owner a.left
  | Semantic.Defined -> false)
  || List.exists
       (function
         | Semantic.Total_right x -> Field.name_equal x a.aname
         | Semantic.Total_left _ | Semantic.Participation_limit _
         | Semantic.Field_not_null _ -> false)
       schema.Semantic.constraints

let scan_load (map : Mapping.t) ~rows ~links db =
  let schema = map.Mapping.semantic in
  let warnings = ref [] in
  let warn fmt = Fmt.kstr (fun s -> warnings := s :: !warnings) fmt in
  let rows_for (e : Semantic.entity) =
    List.concat_map
      (fun (en, rs) -> if Field.name_equal en e.ename then rs else [])
      rows
  in
  let links_for (a : Semantic.assoc) =
    List.concat_map
      (fun (an, ls) -> if Field.name_equal an a.aname then ls else [])
      links
  in
  let same k k' = List.compare Value.compare k k' = 0 in
  (* semantic key -> database key, keys matched under [same] *)
  let index = ref [] in
  let index_set n k v =
    index := (n, k, v) :: List.filter (fun (n', k', _) -> not (n = n' && same k k')) !index
  in
  let index_find n k =
    List.find_map (fun (n', k', v) -> if n = n' && same k k' then Some v else None) !index
  in
  let db =
    match db with
    | `Net ndb ->
        let ndb = ref ndb in
        let store rtype row k =
          match Ndb.store !ndb rtype row with
          | Ok (db, key) -> ndb := db; k key
          | Error s -> warn "load_network %s: %a (skipped)" rtype Status.pp s
        in
        let seed_for (e : Semantic.entity) row =
          List.fold_left
            (fun row (a : Semantic.assoc) ->
              match Mapping.assoc_real map a.aname with
              | Mapping.Assoc_set { member_fields; _ }
                when Field.name_equal a.right e.ename && is_total schema a -> (
                  let rkey = Sdb.key_of e row in
                  match
                    List.fold_left
                      (fun acc (lk : Sdb.link) ->
                        if same lk.rkey rkey then Some lk.lkey else acc)
                      None (links_for a)
                  with
                  | Some lkey ->
                      List.fold_left2
                        (fun row f v -> if Row.mem row f then row else Row.set row f v)
                        row member_fields lkey
                  | None -> row)
              | _ -> row)
            row (Semantic.assocs_of schema e.ename)
        in
        List.iter
          (fun (e : Semantic.entity) ->
            List.iter
              (fun row ->
                store e.ename (seed_for e row) (fun key ->
                    index_set (Field.canon e.ename) (Sdb.key_of e row) key))
              (rows_for e))
          (Mapping.load_order schema);
        List.iter
          (fun (a : Semantic.assoc) ->
            match Mapping.assoc_real map a.aname with
            | Mapping.Assoc_set { set; _ } when not (is_total schema a) ->
                List.iter
                  (fun (lk : Sdb.link) ->
                    match
                      ( index_find (Field.canon a.left) lk.lkey,
                        index_find (Field.canon a.right) lk.rkey )
                    with
                    | Some owner, Some member -> (
                        match Ndb.connect !ndb ~set ~member ~owner with
                        | Ok db -> ndb := db
                        | Error s ->
                            warn "load_network connect %s: %a (skipped)" set
                              Status.pp s)
                    | _ ->
                        warn "load_network connect %s: missing endpoint %s (skipped)"
                          set (key_repr (lk.lkey @ lk.rkey)))
                  (links_for a)
            | Mapping.Assoc_link_record { record; _ } ->
                List.iter
                  (fun lk -> store record (Sdb.link_row schema a lk) (fun _ -> ()))
                  (links_for a)
            | _ -> ())
          schema.Semantic.assocs;
        `Net !ndb
    | `Hier hdb ->
        let hdb = ref hdb in
        let insert parent stype row k =
          match Hdb.insert !hdb ~parent stype row with
          | Ok (db, key) -> hdb := db; k key
          | Error s -> warn "load_hier %s: %a (skipped)" stype Status.pp s
        in
        List.iter
          (fun (e : Semantic.entity) ->
            let parent_assoc =
              List.find_opt
                (fun (a : Semantic.assoc) ->
                  Field.name_equal a.right e.ename
                  && a.card = Semantic.One_to_many && a.fields = []
                  && is_total schema a
                  && not (Field.name_equal a.left e.ename))
                schema.Semantic.assocs
            in
            List.iter
              (fun row ->
                let rkey = Sdb.key_of e row in
                let parent =
                  match parent_assoc with
                  | None -> Some None
                  | Some a -> (
                      match
                        List.find_opt
                          (fun (lk : Sdb.link) -> same lk.rkey rkey)
                          (links_for a)
                      with
                      | Some lk -> (
                          match
                            index_find (Field.canon a.left) lk.lkey
                          with
                          | Some p -> Some (Some p)
                          | None ->
                              warn "load_hier %s: parent %s not loaded (skipped)"
                                e.ename (key_repr lk.lkey);
                              None)
                      | None ->
                          warn "load_hier %s %s: no parent link (skipped)" e.ename
                            (key_repr rkey);
                          None)
                in
                match parent with
                | None -> ()
                | Some parent ->
                    insert parent e.ename row (fun key ->
                        index_set (Field.canon e.ename) rkey key))
              (rows_for e))
          (Mapping.load_order schema);
        List.iter
          (fun (a : Semantic.assoc) ->
            match Mapping.assoc_real map a.aname with
            | Mapping.Assoc_link_segment seg ->
                let re = Semantic.find_entity_exn schema a.right in
                let rkey_field = List.hd re.key in
                List.iter
                  (fun (lk : Sdb.link) ->
                    match
                      index_find (Field.canon a.left) lk.lkey
                    with
                    | Some parent ->
                        insert (Some parent) seg
                          (Row.of_list
                             ((rkey_field, List.hd lk.rkey) :: Row.to_list lk.attrs))
                          (fun _ -> ())
                    | None ->
                        warn "load_hier segment %s: parent %s not loaded (skipped)"
                          seg (key_repr lk.lkey))
                  (links_for a)
            | _ -> ())
          schema.Semantic.assocs;
        `Hier !hdb
  in
  (db, List.rev !warnings)

let fingerprint = Ccv_migrate.Migrate.fingerprint_of_sdb

(* Load [rows]/[links] both ways into [model]; the extracted instances
   and the warnings must be identical.  Returns the indexed loader's
   extracted instance. *)
let same_as_scan model schema ~rows ~links =
  let indexed, scanned, warnings =
    match model with
    | `Net ->
        let map, nschema = Mapping.derive_network schema in
        let loader = Mapping.loader_network map nschema in
        let ws = Mapping.loader_add loader ~rows ~links in
        let ndb =
          match scan_load map ~rows ~links (`Net (Ndb.create nschema)) with
          | `Net ndb, ws' -> check "network: same warnings" true (ws = ws'); ndb
          | `Hier _, _ -> assert false
        in
        ( Mapping.extract_network map (Mapping.loader_ndb loader),
          Mapping.extract_network map ndb, ws )
    | `Hier ->
        let map, hschema = Mapping.derive_hier schema in
        let loader = Mapping.loader_hier map hschema in
        let ws = Mapping.loader_add loader ~rows ~links in
        let hdb =
          match scan_load map ~rows ~links (`Hier (Hdb.create hschema)) with
          | `Hier hdb, ws' -> check "hier: same warnings" true (ws = ws'); hdb
          | `Net _, _ -> assert false
        in
        ( Mapping.extract_hier map (Mapping.loader_hdb loader),
          Mapping.extract_hier map hdb, ws )
  in
  check "same extracted fingerprint" true
    (fingerprint indexed = fingerprint scanned);
  (indexed, warnings)

let owner_of sdb aname rkey =
  List.filter_map
    (fun (l : Sdb.link) ->
      if List.compare Value.compare l.rkey rkey = 0 then Some l.lkey else None)
    (Sdb.links_silent sdb aname)

let rows_links sdb =
  let schema = Sdb.schema sdb in
  ( List.map
      (fun (e : Semantic.entity) -> (e.ename, Sdb.rows_silent sdb e.ename))
      schema.Semantic.entities,
    List.map
      (fun (a : Semantic.assoc) -> (a.aname, Sdb.links_silent sdb a.aname))
      schema.Semantic.assocs )

(* BIN-NO is an integer key, PART-NO a float one; HOLDS is total (an
   owner-coupled set / parent-child), PREFERS is not (a MANUAL set / a
   link segment). *)
let bins_schema =
  Semantic.make
    ~constraints:[ Semantic.Total_right "HOLDS" ]
    [ Semantic.entity "BIN"
        [ Field.make "BIN-NO" Value.Tint; Field.make "BIN-LOC" Value.Tstr ]
        ~key:[ "BIN-NO" ];
      Semantic.entity "PART"
        [ Field.make "PART-NO" Value.Tfloat; Field.make "WEIGHT" Value.Tint ]
        ~key:[ "PART-NO" ];
    ]
    [ Semantic.assoc "HOLDS" ~left:"BIN" ~right:"PART" ();
      Semantic.assoc "PREFERS" ~left:"BIN" ~right:"PART" ();
    ]

let bins_input =
  let bin n loc =
    Row.of_list [ ("BIN-NO", Value.Int n); ("BIN-LOC", Value.Str loc) ]
  and part x w =
    Row.of_list [ ("PART-NO", Value.Float x); ("WEIGHT", Value.Int w) ]
  and link l r = { Sdb.lkey = [ Value.Int l ]; rkey = [ r ]; attrs = Row.empty } in
  ( [ ("BIN", [ bin 1 "NORTH"; bin 2 "SOUTH" ]);
      ("PART",
       [ part 1.0 10; part 1.0000001 15; part 2.5 20; part 3.5 30; part 4.0 40 ]);
    ],
    [ ( "HOLDS",
        [ link 1 (Value.Int 1);  (* an Int names the Float 1.0 row *)
          link 2 (Value.Float 1.0000001);  (* prints like 1.0 under %g *)
          link 2 (Value.Float 2.5);
          link 1 (Value.Float 2.5);  (* a second owner for PART 2.5 *)
          link 9 (Value.Float 3.5);  (* no such BIN *)
          (* PART 4.0 has no HOLDS link *)
        ] );
      ("PREFERS", [ link 2 (Value.Float 1.0); link 7 (Value.Float 2.5) ]);
    ] )

let loader_index_tests =
  let company_with_second_owner () =
    let rows, links = rows_links (W.Company.instance ()) in
    (* ADAMS is in MACHINERY; a later link names CHEMICALS too *)
    let extra =
      { Sdb.lkey = [ Value.Str "CHEMICALS" ];
        rkey = [ Value.Str "ADAMS" ];
        attrs = Row.empty;
      }
    in
    ( rows,
      List.map
        (fun (an, ls) ->
          if Field.name_equal an W.Company.div_emp then (an, ls @ [ extra ])
          else (an, ls))
        links )
  in
  [ Alcotest.test_case "network: the last duplicate link seeds the owner"
      `Quick (fun () ->
        let rows, links = company_with_second_owner () in
        let sdb, _ = same_as_scan `Net W.Company.schema ~rows ~links in
        check "ADAMS is in CHEMICALS" true
          (owner_of sdb W.Company.div_emp [ Value.Str "ADAMS" ]
          = [ [ Value.Str "CHEMICALS" ] ]));
    Alcotest.test_case "hier: the first duplicate link is the parent" `Quick
      (fun () ->
        let rows, links = company_with_second_owner () in
        let sdb, _ = same_as_scan `Hier W.Company.schema ~rows ~links in
        check "ADAMS stays in MACHINERY" true
          (owner_of sdb W.Company.div_emp [ Value.Str "ADAMS" ]
          = [ [ Value.Str "MACHINERY" ] ]));
    Alcotest.test_case "numeric keys, duplicates and lenient warnings" `Quick
      (fun () ->
        let rows, links = bins_input in
        let net, net_ws = same_as_scan `Net bins_schema ~rows ~links in
        let hier, hier_ws = same_as_scan `Hier bins_schema ~rows ~links in
        check "network: MANUAL link BIN 2 -> PART 1.0 lands on PART 1.0" true
          (owner_of net "PREFERS" [ Value.Float 1.0 ] = [ [ Value.Int 2 ] ]
          && owner_of net "PREFERS" [ Value.Float 1.0000001 ] = []);
        check "network: Int 1 seeds PART 1.0" true
          (owner_of net "HOLDS" [ Value.Float 1.0 ] = [ [ Value.Int 1 ] ]);
        check "hier: Int 1 parents PART 1.0" true
          (owner_of hier "HOLDS" [ Value.Float 1.0 ] = [ [ Value.Int 1 ] ]);
        check "network: PART 1.0000001 is not PART 1.0" true
          (owner_of net "HOLDS" [ Value.Float 1.0000001 ] = [ [ Value.Int 2 ] ]);
        check "hier: PART 1.0000001 is not PART 1.0" true
          (owner_of hier "HOLDS" [ Value.Float 1.0000001 ] = [ [ Value.Int 2 ] ]);
        check "network: last owner of PART 2.5" true
          (owner_of net "HOLDS" [ Value.Float 2.5 ] = [ [ Value.Int 1 ] ]);
        check "hier: first parent of PART 2.5" true
          (owner_of hier "HOLDS" [ Value.Float 2.5 ] = [ [ Value.Int 2 ] ]);
        check "network: warnings were raised" true (List.length net_ws >= 2);
        check "hier: warnings were raised" true (List.length hier_ws >= 3));
    Alcotest.test_case "strict: missing link-segment parent names both"
      `Quick (fun () ->
        let map, hschema = Mapping.derive_hier bins_schema in
        let seg =
          match Mapping.assoc_real map "PREFERS" with
          | Mapping.Assoc_link_segment seg -> seg
          | _ -> Alcotest.fail "expected a link segment"
        in
        let loader = Mapping.loader_hier map hschema in
        match
          Mapping.loader_add ~strict:true loader ~rows:[]
            ~links:
              [ ( "PREFERS",
                  [ { Sdb.lkey = [ Value.Int 7 ];
                      rkey = [ Value.Float 1.0 ];
                      attrs = Row.empty;
                    } ] ) ]
        with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument msg ->
            check "names the segment" true (contains ~affix:seg msg);
            check "names the parent key" true
              (contains ~affix:(key_repr [ Value.Int 7 ]) msg));
  ]

let loader_index_prop =
  QCheck.Test.make ~name:"indexed loader = scan loader on shuffled instances"
    ~count:40
    QCheck.(pair (int_range 1 1000) (int_range 5 40))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let rows, links = rows_links (W.Company.scaled ~seed ~n) in
      let jumble ~dup l =
        List.filter_map
          (fun x ->
            match Random.State.int rng 6 with
            | 0 -> None
            | 1 when dup -> Some [ x; x ]
            | _ -> Some [ x ])
          l
        |> List.concat
      in
      (* drop records; drop, duplicate and re-owner links; split each
         input in two pairs under one name *)
      let owners =
        List.map (fun (r : Row.t) -> Row.get r "DIV-NAME")
          (List.assoc W.Company.div rows)
      in
      let halves (name, xs) =
        let k = List.length xs / 2 in
        [ (name, List.filteri (fun i _ -> i < k) xs);
          (name, List.filteri (fun i _ -> i >= k) xs) ]
      in
      let rows = List.concat_map (fun (en, rs) -> halves (en, jumble ~dup:false rs)) rows in
      let reowner (l : Sdb.link) =
        match List.nth owners (Random.State.int rng (List.length owners)) with
        | Some v when Random.State.int rng 4 = 0 -> { l with Sdb.lkey = [ v ] }
        | _ -> l
      in
      let links =
        List.concat_map
          (fun (an, ls) -> halves (an, List.map reowner (jumble ~dup:true ls)))
          links
      in
      List.iter
        (fun model -> ignore (same_as_scan model W.Company.schema ~rows ~links))
        [ `Net; `Hier ];
      true)

let () =
  Alcotest.run "transform"
    [ ("schema-change", schema_change_tests);
      ("data-translate", data_tests);
      ("inverse", inverse_tests);
      ("loader-index", loader_index_tests);
      ("props",
       [ QCheck_alcotest.to_alcotest interpose_prop;
         QCheck_alcotest.to_alcotest roundtrip_prop;
         QCheck_alcotest.to_alcotest loader_index_prop;
       ]);
    ]
