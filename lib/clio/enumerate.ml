module Path = Clip_schema.Path
module Mapping = Clip_core.Mapping
module Validity = Clip_core.Validity
module Engine = Clip_core.Engine

type variant = {
  label : string;
  mapping : Mapping.t;
  outcome : outcome;
}

and outcome =
  | Accepted of Clip_xml.Node.t
  | Invalid of string
  | Failed of string
  | Duplicate of string

type report = {
  base : Mapping.t;
  base_output : Clip_xml.Node.t;
  variants : variant list;
}

(* --- CPT surgery -------------------------------------------------------- *)

let rec subtree_vars (n : Mapping.build_node) =
  Mapping.node_variables n @ List.concat_map subtree_vars n.bn_children

(* Drop predicates whose variables are no longer in scope once the node
   becomes a CPT root. *)
let scope_conds (n : Mapping.build_node) =
  let vars = subtree_vars n in
  let in_scope = function
    | Mapping.O_path (v, _) -> List.exists (String.equal v) vars
    | Mapping.O_const _ -> true
  in
  {
    n with
    bn_cond =
      List.filter
        (fun (p : Mapping.predicate) -> in_scope p.p_left && in_scope p.p_right)
        n.bn_cond;
  }

(* Remove node [id] wherever it occurs as a child; return the pruned
   forest and the removed node (if found). *)
let detach_node roots id =
  let removed = ref None in
  let rec prune (n : Mapping.build_node) =
    let children =
      List.filter_map
        (fun (c : Mapping.build_node) ->
          if String.equal c.bn_id id then begin
            removed := Some c;
            None
          end
          else Some (prune c))
        n.bn_children
    in
    { n with bn_children = children }
  in
  let roots = List.map prune roots in
  (roots, !removed)

let rec replace_node roots id f =
  List.map
    (fun (n : Mapping.build_node) ->
      if String.equal n.bn_id id then f n
      else { n with bn_children = replace_node n.bn_children id f })
    roots

let non_root_nodes (m : Mapping.t) =
  let rec below (n : Mapping.build_node) =
    n.bn_children @ List.concat_map below n.bn_children
  in
  List.concat_map below m.roots

(* --- The variant catalog ------------------------------------------------ *)

let drop_arc_variants (m : Mapping.t) =
  List.map
    (fun (n : Mapping.build_node) ->
      let roots, removed = detach_node m.roots n.bn_id in
      let roots =
        match removed with
        | Some r -> roots @ [ scope_conds r ]
        | None -> roots
      in
      (Printf.sprintf "drop-arc:%s" n.bn_id, { m with roots }))
    (non_root_nodes m)

(* An identity value mapping on an attribute of [n]'s output whose
   source sits under one of [n]'s inputs gives a grouping key. *)
let group_keys (m : Mapping.t) (n : Mapping.build_node) =
  match n.bn_output with
  | None -> []
  | Some out ->
    List.filter_map
      (fun (vm : Mapping.value_mapping) ->
        match vm.vm_fn, vm.vm_sources with
        | Mapping.Identity, [ src ] ->
          if Path.equal (Path.element_of vm.vm_target) out then
            List.find_map
              (fun (i : Mapping.input) ->
                match i.in_var, Path.strip_prefix ~prefix:i.in_source src with
                | Some v, Some steps -> Some ((v, steps), vm)
                | _ -> None)
              n.bn_inputs
          else None
        | _ -> None)
      m.values

let group_variants (m : Mapping.t) =
  let all = Mapping.all_nodes m in
  List.concat_map
    (fun (n : Mapping.build_node) ->
      List.map
        (fun ((key : Mapping.group_key), (vm : Mapping.value_mapping)) ->
          let is_root = List.exists (fun r -> r == n) m.roots in
          let grouped node = { node with Mapping.bn_group_by = [ key ] } in
          let roots =
            if is_root then replace_node m.roots n.bn_id grouped
            else
              let roots, removed = detach_node m.roots n.bn_id in
              match removed with
              | Some r -> roots @ [ grouped (scope_conds r) ]
              | None -> m.roots
          in
          ( Printf.sprintf "group:%s-by-%s" n.bn_id
              (Path.to_string vm.vm_target),
            { m with roots } ))
        (group_keys m n))
    all

(* --- The analysis ------------------------------------------------------- *)

let try_run ~instance (m : Mapping.t) =
  match Validity.check m with
  | issues
    when List.exists (fun (i : Validity.issue) -> i.severity = Validity.Error) issues
    ->
    Error
      (`Invalid
        (String.concat "; "
           (List.map Validity.issue_to_string
              (List.filter
                 (fun (i : Validity.issue) -> i.severity = Validity.Error)
                 issues))))
  | _ ->
    (match Engine.run_result m instance with
     | Ok output -> Ok output
     | Error ds -> Error (`Failed (String.trim (Clip_diag.render_list ds))))

let flexibility_unguarded ~instance (m : Mapping.t) =
  let forest = Generate.forest ~extension:true m in
  let base = Generate.to_clip m forest in
  let gen_error fmt =
    Printf.ksprintf
      (fun s ->
        Clip_diag.fail
          (Clip_diag.error ~code:Clip_diag.Codes.clio_not_expressible s))
      fmt
  in
  let base_output =
    match try_run ~instance base with
    | Ok out -> out
    | Error (`Invalid msg) -> gen_error "flexibility: invalid base mapping: %s" msg
    | Error (`Failed msg) -> gen_error "flexibility: base mapping failed: %s" msg
  in
  let seen = ref [ base_output ] in
  let variants =
    List.map
      (fun (label, mapping) ->
        let outcome =
          match try_run ~instance mapping with
          | Error (`Invalid msg) -> Invalid msg
          | Error (`Failed msg) -> Failed msg
          | Ok output ->
            if List.exists (Clip_xml.Node.equal_unordered output) !seen then
              Duplicate "output equals the base's or an earlier variant's"
            else begin
              seen := output :: !seen;
              Accepted output
            end
        in
        { label; mapping; outcome })
      (drop_arc_variants base @ group_variants base)
  in
  { base; base_output; variants }

let flexibility_result ~instance m =
  Clip_diag.guard (fun () -> flexibility_unguarded ~instance m)

let flexibility ~instance m =
  match flexibility_result ~instance m with
  | Ok r -> r
  | Error ds ->
    let d = match ds with d :: _ -> d | [] -> assert false in
    failwith d.Clip_diag.message

let extra_count r =
  List.length
    (List.filter (fun v -> match v.outcome with Accepted _ -> true | _ -> false) r.variants)

let report_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "base mapping (Clio extension output): %d build nodes\n"
       (List.length (Mapping.all_nodes r.base)));
  List.iter
    (fun v ->
      let status =
        match v.outcome with
        | Accepted _ -> "ACCEPTED"
        | Invalid m -> "invalid: " ^ m
        | Failed m -> "failed: " ^ m
        | Duplicate m -> "duplicate: " ^ m
      in
      Buffer.add_string buf (Printf.sprintf "  %-40s %s\n" v.label status))
    r.variants;
  Buffer.add_string buf
    (Printf.sprintf "extra meaningful mappings with Clip: %d\n" (extra_count r));
  Buffer.contents buf
