(* Phased-coexistence cutover, twice over.

   First a clean conversion (the Figure 4.2 -> 4.4 DEPT interposition):
   the service shadows every request on the converted system, sees zero
   divergence, and walks the ladder shadow -> canary -> cutover.

   Then a conversion that loses data (§5.2's extension restriction,
   dropping employees aged 45 and over): shadow comparison catches the
   divergences online and the controller rolls the canary back instead
   of cutting over. *)

open Ccv_common
open Ccv_transform
open Ccv_convert
open Ccv_serve
module W = Ccv_workload

let interpose_op =
  Schema_change.Interpose
    { through = W.Company.div_emp;
      new_entity = W.Company.dept;
      group_by = [ "DEPT-NAME" ];
      left_assoc = W.Company.div_dept;
      right_assoc = W.Company.dept_emp;
    }

let restrict_op =
  Schema_change.Restrict_extension
    { entity = W.Company.emp;
      qual = Cond.Cmp (Cond.Ge, Cond.Field "AGE", Cond.Const (Value.Int 45));
    }

let req ops =
  { Supervisor.source_schema = W.Company.schema;
    source_model = Mapping.Net;
    ops;
    target_model = Mapping.Net;
  }

let serve ~title ~cutover ops =
  Printf.printf "=== %s ===\n\n" title;
  let sample = W.Company.instance () in
  let reqs = Request.stream ~seed:2026 W.Company.schema ~sample ~n:64 () in
  (* rows of 2 requests per shard: the phase plan runs 2 rows ahead of
     the controller, so a phase serves only rows planned after it
     began, and a short stream needs short rows to walk the ladder *)
  let config = { Pool.default_config with shards = 4; epoch_batch = 2 } in
  match Pool.run ~config ~cutover (req ops) sample reqs with
  | Error e -> Printf.printf "service failed to start: %s\n\n" e
  | Ok r -> Printf.printf "%s\n" (Pool.render r)

let () =
  serve ~title:"clean conversion: DEPT interposition reaches cutover"
    ~cutover:
      { Cutover.default_config with
        promote_after = 12;
        min_observations = 6;
      }
    [ interpose_op ];
  serve
    ~title:
      "lossy conversion: AGE >= 45 restriction diverges and rolls back"
    ~cutover:
      { Cutover.default_config with
        initial = Cutover.Canary 0.25;
        window = 8;
        min_observations = 4;
        max_divergence_rate = 0.2;
        promote_after = 1000;
      }
    [ restrict_op ]
