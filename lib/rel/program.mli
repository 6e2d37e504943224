(** A compiled relational program: the shard-ready artifact of the rel
    backend. Compilation is purely static — it checks that the
    mapping's source schema is relational-shaped ({!Shape.of_schema})
    and that every source generator of the tgd ranges over a whole
    table, and rejects everything else with a [CLIP-REL-003]
    diagnostic before any evaluation. *)

type t = {
  source_root : string;  (** the database root element *)
  target_root : string;
  shape : Shape.t;
  tgd : Clip_tgd.Tgd.t;
}

val compile_result :
  source:Clip_schema.Schema.t ->
  target_root:string ->
  Clip_tgd.Tgd.t ->
  (t, Clip_diag.t list) result
