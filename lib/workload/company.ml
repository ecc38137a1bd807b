open Ccv_common
open Ccv_model

let div = "DIV"
let emp = "EMP"
let div_emp = "DIV-EMP"
let dept = "DEPT"
let div_dept = "DIV-DEPT"
let dept_emp = "DEPT-EMP"

let schema =
  Semantic.make
    ~constraints:[ Semantic.Total_right div_emp ]
    [ Semantic.entity div
        [ Field.make "DIV-NAME" Value.Tstr; Field.make "DIV-LOC" Value.Tstr ]
        ~key:[ "DIV-NAME" ];
      Semantic.entity emp
        [ Field.make "EMP-NAME" Value.Tstr;
          Field.make "DEPT-NAME" Value.Tstr;
          Field.make "AGE" Value.Tint;
        ]
        ~key:[ "EMP-NAME" ];
    ]
    [ Semantic.assoc div_emp ~left:div ~right:emp () ]

let divisions = [ ("MACHINERY", "DETROIT"); ("CHEMICALS", "HOUSTON") ]

let employees =
  [ ("ADAMS", "SALES", 34, "MACHINERY"); ("BAKER", "SALES", 28, "MACHINERY");
    ("CLARK", "DESIGN", 45, "MACHINERY"); ("DAVIS", "SALES", 31, "CHEMICALS");
    ("EVANS", "LABS", 52, "CHEMICALS"); ("FROST", "DESIGN", 29, "MACHINERY");
    ("GREEN", "LABS", 38, "CHEMICALS");
  ]

let instance () =
  let db = Sdb.create schema in
  let db =
    List.fold_left
      (fun db (name, loc) ->
        Sdb.insert_entity_exn db div
          (Row.of_list
             [ ("DIV-NAME", Value.Str name); ("DIV-LOC", Value.Str loc) ]))
      db divisions
  in
  List.fold_left
    (fun db (name, dept_name, age, division) ->
      let db =
        Sdb.insert_entity_exn db emp
          (Row.of_list
             [ ("EMP-NAME", Value.Str name);
               ("DEPT-NAME", Value.Str dept_name);
               ("AGE", Value.Int age);
             ])
      in
      Sdb.link_exn db div_emp ~left:[ Value.Str division ]
        ~right:[ Value.Str name ])
    db employees

(* Each extent and link set is built with one [Sdb.insert_all] /
   [Sdb.link_all] call: per-record inserts re-check and re-index the
   whole extent each time, which made the generator quadratic.  Draws
   happen in the same order as the per-record fold this replaced (a
   division's location; then per employee its division, age and
   department), so the instance is the same, row for row and link for
   link. *)
let scaled ~seed ~n =
  let rng = Prng.create ~seed in
  let n_div = max 2 (n / 10) in
  let depts = [ "SALES"; "DESIGN"; "LABS" ] in
  let divs =
    List.init n_div (fun i ->
        Row.of_list
          [ ("DIV-NAME", Value.Str (Printf.sprintf "DIV%03d" i));
            ("DIV-LOC", Value.Str (Prng.word rng 7));
          ])
  in
  let emps =
    List.init n (fun i ->
        let name = Printf.sprintf "E%05d" i in
        let division = Printf.sprintf "DIV%03d" (Prng.int rng n_div) in
        (* age before department: the order the fold's row literal,
           evaluated right to left, drew them in *)
        let age = Prng.int_in rng 20 65 in
        let dept_name = Prng.pick rng depts in
        ( Row.of_list
            [ ("EMP-NAME", Value.Str name);
              ("DEPT-NAME", Value.Str dept_name);
              ("AGE", Value.Int age);
            ],
          ([ Value.Str division ], [ Value.Str name ], Row.empty) ))
  in
  let all_ok what = function
    | [] -> ()
    | _ :: _ -> invalid_arg ("Company.scaled: rejected " ^ what)
  in
  let db, rejected = Sdb.insert_all (Sdb.create schema) div divs in
  all_ok div (List.map snd rejected);
  let db, rejected = Sdb.insert_all db emp (List.map fst emps) in
  all_ok emp (List.map snd rejected);
  let db, rejected = Sdb.link_all db div_emp (List.map snd emps) in
  all_ok div_emp rejected;
  db
