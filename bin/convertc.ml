(* convertc — the conversion system as a command-line tool.

   Takes a Maryland DDL schema file, a program file in the FIND/DISPLAY
   syntax, and a restructuring description; prints the converted
   program and the supervisor's issue log.

   Restructuring syntax (one operator per --op, applied in order):

     rename-entity OLD NEW
     rename-field ENTITY OLD NEW
     rename-assoc OLD NEW
     add-field ENTITY FIELD (str|int)
     drop-field ENTITY FIELD
     interpose THROUGH NEW-ENTITY GROUP-FIELD LEFT-ASSOC RIGHT-ASSOC
     widen ASSOC
     restrict ENTITY FIELD VALUE   (drop instances where FIELD = VALUE)

   Example:

     convertc --schema fig43.ddl --program list-sales.prog \
       --op "interpose DIV-EMP DEPT DEPT-NAME DIV-DEPT DEPT-EMP" *)

open Cmdliner
open Ccv_common
open Ccv_abstract
open Ccv_transform
open Ccv_convert

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_op s =
  match String.split_on_char ' ' (String.trim s) |> List.filter (( <> ) "") with
  | [ "rename-entity"; a; b ] ->
      Ok (Schema_change.Rename_entity { from_ = a; to_ = b })
  | [ "rename-field"; e; a; b ] ->
      Ok (Schema_change.Rename_field { entity = e; from_ = a; to_ = b })
  | [ "rename-assoc"; a; b ] ->
      Ok (Schema_change.Rename_assoc { from_ = a; to_ = b })
  | [ "add-field"; e; f; ty ] ->
      let ty, default =
        match String.lowercase_ascii ty with
        | "int" -> (Value.Tint, Value.Int 0)
        | _ -> (Value.Tstr, Value.Str "")
      in
      Ok (Schema_change.Add_field { entity = e; field = Field.make f ty; default })
  | [ "drop-field"; e; f ] ->
      Ok (Schema_change.Drop_field { entity = e; field = f })
  | [ "interpose"; through; n; g; la; ra ] ->
      Ok
        (Schema_change.Interpose
           { through; new_entity = n; group_by = [ g ]; left_assoc = la;
             right_assoc = ra })
  | [ "widen"; a ] -> Ok (Schema_change.Widen_cardinality { assoc = a })
  | [ "restrict"; e; f; v ] ->
      let v = Option.value (Value.of_literal v) ~default:(Value.Str v) in
      Ok
        (Schema_change.Restrict_extension
           { entity = e; qual = Cond.eq_field_const f v })
  | _ -> Error (Fmt.str "cannot parse operator %S" s)

let run schema_path program_path ops_raw verbose =
  let ddl = Ccv_frontend.Ddl.parse (read_file schema_path) in
  let source_schema = Ccv_frontend.Ddl.to_semantic ddl in
  let aprog, notes =
    Ccv_frontend.Dml_parse.parse_program ddl (read_file program_path)
  in
  List.iter (Printf.printf "note: %s\n") notes;
  let ops =
    List.map
      (fun s ->
        match parse_op s with Ok op -> op | Error e -> failwith e)
      ops_raw
  in
  (* Build the concrete CODASYL source from the parsed program, then
     run the full pipeline. *)
  let source_mapping = Supervisor.mapping_for Mapping.Net source_schema in
  let source =
    match Generator.generate source_mapping aprog with
    | Ok g -> g.Generator.program
    | Error e -> failwith ("source program not realizable: " ^ e)
  in
  if verbose then
    Printf.printf "--- source (CODASYL) ---\n%s\n"
      (Fmt.str "%a" Engines.pp_program source);
  let req =
    { Supervisor.source_schema;
      source_model = Mapping.Net;
      ops;
      target_model = Mapping.Net;
    }
  in
  match Supervisor.convert_program req source with
  | Error (stage, reason) ->
      Printf.printf "conversion failed at %s: %s\n" stage reason;
      exit 1
  | Ok report ->
      Printf.printf "--- classification ---\n";
      List.iter
        (fun (op, cls) ->
          Printf.printf "%s  [%s]\n"
            (Schema_change.show_op op)
            (Schema_change.show_class cls))
        report.Supervisor.classification;
      Printf.printf "\n--- converted access paths ---\n";
      List.iter
        (fun q ->
          Printf.printf "%s\n"
            (Ccv_frontend.Dml_parse.find_of_query
               ~target:(Apattern.result_of q) q))
        (Aprog.queries report.Supervisor.optimized);
      Printf.printf "\n--- converted program (CODASYL) ---\n%s\n"
        (Fmt.str "%a" Engines.pp_program report.Supervisor.target_program);
      if report.Supervisor.issues <> [] then begin
        Printf.printf "--- issues for the conversion analyst ---\n";
        List.iter
          (fun i -> Printf.printf "%s\n" (Fmt.str "%a" Supervisor.pp_issue i))
          report.Supervisor.issues
      end;
      if verbose && report.Supervisor.optimizer_log <> [] then begin
        Printf.printf "--- optimizer ---\n";
        List.iter (Printf.printf "%s\n") report.Supervisor.optimizer_log
      end

(* ------------------------------------------------------------------ *)
(* analyze: preflight static analysis — verdicts, depth, lints and
   inferred constraints without executing any rewrite                  *)

let explain_plans ?stats schema aprog =
  List.iteri
    (fun i q ->
      let plan = Ccv_plan.Plan.of_query ?stats schema q in
      Printf.printf "query %d: %s\n%s\n" (i + 1)
        (Ccv_analysis.Depth.render_path q)
        (Ccv_plan.Plan.explain_costs ?stats schema plan))
    (Aprog.queries aprog)

let analyze_file schema_path program_path ops_raw cap json explain =
  let ddl = Ccv_frontend.Ddl.parse (read_file schema_path) in
  let source_schema = Ccv_frontend.Ddl.to_semantic ddl in
  let aprog, notes =
    Ccv_frontend.Dml_parse.parse_program ddl (read_file program_path)
  in
  let ops =
    List.map
      (fun s -> match parse_op s with Ok op -> op | Error e -> failwith e)
      ops_raw
  in
  let report = Ccv_analysis.Report.analyze ~cap ~ops source_schema aprog in
  if json then print_endline (Ccv_analysis.Report.to_json report)
  else begin
    List.iter (Printf.printf "note: %s\n") notes;
    Fmt.pr "%a@." Ccv_analysis.Report.pp report;
    if explain then begin
      Printf.printf
        "--- chosen plans (per-step cost estimates, nominal statistics) ---\n";
      explain_plans source_schema aprog
    end
  end;
  if
    Ccv_analysis.Report.refused report
    || Ccv_analysis.Report.errors report <> []
  then exit 1

(* Corpus mode: generated programs x restructuring chains over both
   built-in schemas, checking the static verdict against the rewrite
   engine's actual outcome on every (program, op) pair.  A false
   accept (preflight says convertible, engine refuses) exits 2; a
   false refusal exits 3.  This is the CI lint gate. *)

let analyze_corpus n seed cap json =
  let module W = Ccv_workload in
  let module A = Ccv_analysis in
  let interpose_op =
    Schema_change.Interpose
      { through = W.Company.div_emp;
        new_entity = W.Company.dept;
        group_by = [ "DEPT-NAME" ];
        left_assoc = W.Company.div_dept;
        right_assoc = W.Company.dept_emp;
      }
  in
  let collapse_op =
    Schema_change.Collapse
      { left_assoc = W.Company.div_dept;
        right_assoc = W.Company.dept_emp;
        removed_entity = W.Company.dept;
        restored_assoc = W.Company.div_emp;
      }
  in
  let company_chains =
    [ [ Schema_change.Rename_entity { from_ = "EMP"; to_ = "EMPLOYEE" } ];
      [ Schema_change.Rename_field
          { entity = "EMP"; from_ = "AGE"; to_ = "EMP-AGE" };
      ];
      [ Schema_change.Add_field
          { entity = "EMP";
            field = Field.make "SALARY" Value.Tint;
            default = Value.Int 0;
          };
      ];
      [ Schema_change.Drop_field { entity = "EMP"; field = "AGE" } ];
      [ Schema_change.Drop_field { entity = "EMP"; field = "DEPT-NAME" } ];
      [ Schema_change.Add_constraint
          (Ccv_model.Semantic.Field_not_null { entity = "EMP"; field = "DEPT-NAME" });
      ];
      [ Schema_change.Drop_constraint (Ccv_model.Semantic.Total_right W.Company.div_emp);
        Schema_change.Widen_cardinality { assoc = W.Company.div_emp };
      ];
      [ interpose_op ];
      [ interpose_op; collapse_op ];
      [ Schema_change.Restrict_extension
          { entity = "EMP"; qual = Cond.eq_field_const "AGE" (Value.Int 30) };
      ];
    ]
  in
  let school_chains =
    [ [ Schema_change.Rename_entity
          { from_ = W.School.course; to_ = "KURS" };
      ];
      [ Schema_change.Rename_assoc
          { from_ = W.School.offering; to_ = "TEACHING" };
      ];
      [ Schema_change.Drop_field
          { entity = W.School.course; field = "CNAME" };
      ];
      [ Schema_change.Add_field
          { entity = W.School.semester;
            field = Field.make "TERM" Value.Tstr;
            default = Value.Str "";
          };
      ];
      [ Schema_change.Restrict_extension
          { entity = W.School.semester;
            qual = Cond.eq_field_const "YEAR" (Value.Int 1970);
          };
      ];
    ]
  in
  let pairs = ref 0 and convertible = ref 0 and refused = ref 0 in
  let false_accepts = ref 0 and false_refusals = ref 0 and deep = ref 0 in
  let refusal_diags = ref [] and lint_diags = ref [] in
  let run_schema name schema sample chains =
    let programs = W.Generator.batch ~seed schema ~sample ~n () in
    List.iter
      (fun ((_fam : W.Generator.family), p) ->
        (match A.Depth.check ~cap p with Ok () -> () | Error _ -> incr deep);
        lint_diags := List.rev_append (A.Lint.all schema p) !lint_diags;
        List.iter
          (fun chain ->
            let rec go schema p = function
              | [] -> ()
              | op :: rest -> (
                  incr pairs;
                  let predicted = Rules.preflight_op schema op p in
                  let actual = Rules.convert_d schema op p in
                  (match (predicted, actual) with
                  | None, Ok _ -> incr convertible
                  | Some d, Error _ ->
                      incr refused;
                      refusal_diags := d :: !refusal_diags
                  | None, Error d ->
                      incr false_accepts;
                      Printf.eprintf
                        "FALSE ACCEPT (%s, %s, %s): engine refused: %s\n" name
                        p.Aprog.name (Schema_change.show_op op)
                        (Diagnostic.to_string d)
                  | Some d, Ok _ ->
                      incr false_refusals;
                      Printf.eprintf
                        "FALSE REFUSAL (%s, %s, %s): predicted: %s\n" name
                        p.Aprog.name (Schema_change.show_op op)
                        (Diagnostic.to_string d));
                  match actual with
                  | Error _ -> ()
                  | Ok (p', _) -> (
                      match Schema_change.apply schema op with
                      | Error _ -> ()
                      | Ok schema' -> go schema' p' rest))
            in
            go schema p chain)
          chains)
      programs
  in
  run_schema "company" W.Company.schema (W.Company.instance ()) company_chains;
  run_schema "school" W.School.schema (W.School.instance ()) school_chains;
  let code_counts ds = Diagnostic.count_codes (List.rev ds) in
  if json then begin
    let counts_json cs =
      String.concat ","
        (List.map
           (fun (c, k) -> Printf.sprintf "{\"code\":\"%s\",\"count\":%d}" c k)
           cs)
    in
    Printf.printf
      "{\"programs\":%d,\"pairs\":%d,\"convertible\":%d,\"refused\":%d,\"false_accepts\":%d,\"false_refusals\":%d,\"over_depth_cap\":%d,\"refusal_codes\":[%s],\"lint_codes\":[%s]}\n"
      (2 * n) !pairs !convertible !refused !false_accepts !false_refusals !deep
      (counts_json (code_counts !refusal_diags))
      (counts_json (code_counts !lint_diags))
  end
  else begin
    Printf.printf
      "analyzed %d (program, op) pairs over %d generated programs\n" !pairs
      (2 * n);
    Printf.printf
      "  convertible %d   refused %d   false-accepts %d   false-refusals %d\n"
      !convertible !refused !false_accepts !false_refusals;
    Printf.printf "  programs over the %d-hop migration cap: %d\n" cap !deep;
    let print_counts label cs =
      if cs <> [] then begin
        Printf.printf "  %s:" label;
        List.iter (fun (c, k) -> Printf.printf " %s x%d" c k) cs;
        print_newline ()
      end
    in
    print_counts "refusal codes" (code_counts !refusal_diags);
    print_counts "lint codes" (code_counts !lint_diags)
  end;
  if !false_accepts > 0 then exit 2;
  if !false_refusals > 0 then exit 3

let analyze_run schema program ops_raw cap corpus seed json explain =
  match corpus with
  | Some n -> analyze_corpus n seed cap json
  | None -> (
      match (schema, program) with
      | Some s, Some p -> analyze_file s p ops_raw cap json explain
      | _ ->
          prerr_endline
            "analyze: --schema and --program are required unless --corpus N \
             is given";
          exit 64)

(* ------------------------------------------------------------------ *)
(* serve: drive a workload through the phased-coexistence service      *)

let serve_run ops_raw requests domains shards seed canary window min_obs
    threshold promote strict no_plan_cache fail_request epoch_batch
    live_migration backfill_batch backfill_lag skew cost_based stats_every
    drift_threshold explain =
  let module S = Ccv_serve in
  let module W = Ccv_workload in
  let ops =
    List.map
      (fun s ->
        match parse_op s with Ok op -> op | Error e -> failwith e)
      ops_raw
  in
  let sample = W.Company.instance () in
  let reqs =
    S.Request.stream ~seed W.Company.schema ~sample ~n:requests ~skew ()
  in
  let req =
    { Supervisor.source_schema = W.Company.schema;
      source_model = Mapping.Net;
      ops;
      target_model = Mapping.Net;
    }
  in
  if explain then begin
    (* One plan per distinct program in the stream, costed under the
       statistics of the instance the shards will serve — the same
       snapshot a cost-based shard starts from. *)
    let stats =
      if cost_based then Some (Ccv_plan.Stats.of_sdb sample) else None
    in
    (match stats with
    | Some st ->
        Printf.printf "--- chosen plans (instance statistics %s) ---\n"
          (Ccv_plan.Stats.fingerprint st)
    | None ->
        Printf.printf
          "--- chosen plans (heuristic; nominal cost estimates) ---\n");
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (r : S.Request.t) ->
        let name = r.S.Request.aprog.Aprog.name in
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.add seen name ();
          Printf.printf "[%s]\n" name;
          explain_plans ?stats W.Company.schema r.S.Request.aprog
        end)
      reqs
  end;
  let cutover =
    { S.Cutover.canary_fraction = canary;
      window;
      min_observations = min_obs;
      max_divergence_rate = threshold;
      promote_after = promote;
      initial = S.Cutover.Shadow;
    }
  in
  let config =
    { S.Pool.domains;
      shards;
      canary_seed = seed;
      tolerate_reordering = not strict;
      use_plan_cache = not no_plan_cache;
      fail_request;
      epoch_batch;
      live_migration;
      backfill_batch;
      backfill_lag;
      fail_backfill = None;
      fingerprint_replicas = false;
      cost_based_plans = cost_based;
      stats_every;
      drift_threshold;
    }
  in
  match S.Pool.run ~config ~cutover req sample reqs with
  | Error e ->
      Printf.printf "service failed to start: %s\n" e;
      exit 1
  | Ok r ->
      print_string (S.Pool.render r);
      if r.S.Pool.status = S.Cutover.Aborted then exit 2

let schema_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "schema" ] ~docv:"FILE" ~doc:"Maryland DDL schema (Figure 4.3 syntax)")

let program_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "program" ] ~docv:"FILE" ~doc:"program in FIND/DISPLAY syntax")

let ops_arg =
  Arg.(
    value & opt_all string []
    & info [ "op" ] ~docv:"OP" ~doc:"restructuring operator (repeatable)")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"print intermediate forms")

let analyze_cmd =
  let doc =
    "static conversion-safety analysis: predict refusal verdicts, check \
     navigation depth against the live-migration cap, lint access paths \
     and infer implied constraints — without rewriting or executing the \
     program"
  in
  let schema =
    Arg.(
      value
      & opt (some file) None
      & info [ "schema" ] ~docv:"FILE" ~doc:"Maryland DDL schema")
  in
  let program =
    Arg.(
      value
      & opt (some file) None
      & info [ "program" ] ~docv:"FILE" ~doc:"program in FIND/DISPLAY syntax")
  in
  let cap =
    Arg.(
      value
      & opt int Ccv_analysis.Depth.default_cap
      & info [ "cap" ] ~docv:"N" ~doc:"navigation-depth admission cap (hops)")
  in
  let corpus =
    Arg.(
      value
      & opt (some int) None
      & info [ "corpus" ] ~docv:"N"
          ~doc:
            "differential mode: N generated programs per built-in schema, \
             every (program, op) static verdict checked against the rewrite \
             engine (exit 2 on a false accept, 3 on a false refusal)")
  in
  let seed =
    Arg.(
      value & opt int 2024 & info [ "seed" ] ~docv:"SEED" ~doc:"corpus seed")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"machine-readable output")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "print each query's chosen plan with per-step row and cost \
             estimates (nominal statistics — no instance is available at \
             analysis time)")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      const analyze_run $ schema $ program $ ops_arg $ cap $ corpus $ seed
      $ json $ explain)

let convert_term =
  Term.(const run $ schema_arg $ program_arg $ ops_arg $ verbose_arg)

let convert_cmd =
  let doc = "convert a program against a restructuring (default command)" in
  Cmd.v (Cmd.info "convert" ~doc) convert_term

let serve_cmd =
  let doc =
    "run the built-in company workload through the phased-coexistence \
     service: every request shadows on the converted system, divergence \
     is watched online, and the cutover ladder \
     (shadow -> canary -> cutover) promotes or rolls back automatically"
  in
  let requests =
    Arg.(value & opt int 96 & info [ "requests" ] ~docv:"N" ~doc:"workload size")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"D"
          ~doc:"worker domains; the pool uses min(D, shards, cores) slots")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"S" ~doc:"replica shards")
  in
  let seed =
    Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed")
  in
  let canary =
    Arg.(
      value & opt float 0.25
      & info [ "canary" ] ~docv:"FRAC" ~doc:"canary traffic fraction")
  in
  let window =
    Arg.(
      value & opt int 32
      & info [ "window" ] ~docv:"W" ~doc:"divergence sliding-window size")
  in
  let min_obs =
    Arg.(
      value & opt int 8
      & info [ "min-observations" ] ~docv:"M"
          ~doc:"observations before the window can trigger rollback")
  in
  let threshold =
    Arg.(
      value & opt float 0.05
      & info [ "threshold" ] ~docv:"RATE"
          ~doc:"max divergence rate before rollback")
  in
  let promote =
    Arg.(
      value & opt int 24
      & info [ "promote-after" ] ~docv:"K"
          ~doc:"consecutive clean shadows before promotion")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"demand strict trace equality (reject order-only equivalence)")
  in
  let no_plan_cache =
    Arg.(
      value & flag
      & info [ "no-plan-cache" ]
          ~doc:"disable the per-shard compiled plan cache (re-convert and \
                re-interpret every request)")
  in
  let fail_request =
    Arg.(
      value & opt (some int) None
      & info [ "fail-request" ] ~docv:"ID"
          ~doc:"fault injection: crash the worker serving this request id \
                (exercises worker-failure propagation)")
  in
  let epoch_batch =
    Arg.(
      value & opt int 16
      & info [ "epoch-batch" ] ~docv:"B"
          ~doc:"requests per shard per epoch row")
  in
  let live_migration =
    Arg.(
      value & flag
      & info [ "live-migration" ]
          ~doc:"serve while migrating: start with empty target replicas and \
                fill them online by per-request fault-in, background \
                backfill and dual-applied writes, instead of bulk data \
                translation up front.  The first request is served \
                immediately; promotion to canary/cutover waits for the \
                backfill convergence gate")
  in
  let backfill_batch =
    Arg.(
      value & opt int 64
      & info [ "backfill-batch" ] ~docv:"N"
          ~doc:"live migration: pending records drained per shard per \
                logical row")
  in
  let backfill_lag =
    Arg.(
      value & opt int 1
      & info [ "backfill-lag" ] ~docv:"L"
          ~doc:"live migration: logical rows served before backfill starts")
  in
  let skew =
    Arg.(
      value & opt float 0.
      & info [ "skew" ] ~docv:"THETA"
          ~doc:"Zipf exponent for key popularity in the generated workload \
                (0 = uniform)")
  in
  let cost_based =
    Arg.(
      value & flag
      & info [ "cost-based" ]
          ~doc:"cost-based plan selection: each shard snapshots the \
                cardinality statistics of its replica and orders equality \
                conjuncts by observed selectivity; cached plans carry the \
                snapshot fingerprint")
  in
  let stats_every =
    Arg.(
      value & opt int 0
      & info [ "stats-every" ] ~docv:"N"
          ~doc:"with $(b,--cost-based), re-observe each shard's live target \
                replica every N requests and flush its plan cache when \
                counts drift past $(b,--drift-threshold) (0 = never)")
  in
  let drift_threshold =
    Arg.(
      value & opt float 0.5
      & info [ "drift-threshold" ] ~docv:"FRAC"
          ~doc:"largest tolerated relative cardinality change before cached \
                plans are recosted")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "before serving, print each distinct workload program's chosen \
             plan with per-step cost estimates (under the instance \
             statistics when $(b,--cost-based) is set)")
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve_run $ ops_arg $ requests $ domains $ shards $ seed
      $ canary $ window $ min_obs $ threshold $ promote $ strict
      $ no_plan_cache $ fail_request $ epoch_batch $ live_migration
      $ backfill_batch $ backfill_lag $ skew $ cost_based $ stats_every
      $ drift_threshold $ explain)

let cmd =
  let doc =
    "convert a database program to match a schema restructuring (CODASYL \
     Database Program Conversion framework, 1979)"
  in
  Cmd.group ~default:convert_term
    (Cmd.info "convertc" ~version:"1.0" ~doc)
    [ convert_cmd; analyze_cmd; serve_cmd ]

let () = exit (Cmd.eval cmd)
