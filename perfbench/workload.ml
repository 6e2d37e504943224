(* The benchmark's workloads and metric names. BENCHMARK.json at the
   repository root lists the same names; perfbench/README.md says why
   each workload is there. *)

type input =
  | Deptdb_large  (** one ~5.1 MB deptdb document *)
  | Deptdb_batch of int  (** this many ~4.3 KB deptdb documents *)
  | Grants of int  (** a company/grant database with this many companies *)

type t = {
  name : string;
  mapping : string;  (** file under perfbench/mappings *)
  figure : string option;
      (** the Figures scenario whose paper output the mapping must
          reproduce on the Sec. I-A instance *)
  backend : string;
  jobs : int;
  stream : bool;
  input : input;
}

let all =
  [
    {
      name = "ingest_large";
      mapping = "fig9.clip";
      figure = Some "fig9";
      backend = "tgd";
      jobs = 1;
      stream = false;
      input = Deptdb_large;
    };
    {
      name = "group_join_large";
      mapping = "fig7.clip";
      figure = Some "fig7";
      backend = "tgd";
      jobs = 1;
      stream = false;
      input = Deptdb_large;
    };
    {
      name = "batch_small";
      mapping = "fig5.clip";
      figure = Some "fig5";
      backend = "tgd";
      jobs = 2;
      stream = false;
      input = Deptdb_batch 2000;
    };
    {
      name = "stream_large";
      mapping = "fig4.clip";
      figure = Some "fig4";
      backend = "tgd";
      jobs = 1;
      stream = true;
      input = Deptdb_large;
    };
    {
      name = "rel_join";
      mapping = "grants.clip";
      figure = None;
      backend = "rel";
      jobs = 1;
      stream = false;
      input = Grants 500;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let mapping_path w = Filename.concat (Filename.concat "perfbench" "mappings") w.mapping

(* The flags of the workload's `clip run` command, in the order
   perfbench/README.md shows them. *)
let flags w =
  (if w.backend = "tgd" then [] else [ "--backend"; w.backend ])
  @ (if w.stream then [ "--stream" ] else [])
  @ if w.jobs > 1 then [ "--jobs"; string_of_int w.jobs ] else []

let input_names w =
  match w.input with
  | Deptdb_large -> [ "big.xml" ]
  | Deptdb_batch n -> List.init n (fun i -> Printf.sprintf "d%04d.xml" (i + 1))
  | Grants _ -> [ "grants.xml" ]

(* The input texts for [seed], in the order of [input_names]. *)
let inputs w ~seed =
  match w.input with
  | Deptdb_large -> [ Gen.deptdb_large ~seed ]
  | Deptdb_batch n -> Gen.deptdb_batch ~seed ~n
  | Grants companies -> [ Gen.grants ~seed ~companies ]

let minimal_input w =
  match w.input with
  | Deptdb_large | Deptdb_batch _ -> Gen.deptdb_minimal
  | Grants _ -> Gen.grants_minimal

(* Metric names and units, reported with --trace 0 and --trace 1. *)
let end_to_end =
  [ ("wall_s", "s"); ("cpu_s", "s"); ("peak_mem_mb", "MB"); ("setup_s", "s") ]

let per_layer =
  [
    ("io.read.ms", "ms");
    ("xml.parse.ms", "ms");
    ("xml.parse.mw", "mw");
    ("xml.parse.mb_s", "MB/s");
    ("shard.cut.ms", "ms");
    ("shard.cut.mw", "mw");
    ("shard.count", "count");
    ("core.load.ms", "ms");
    ("engine.compile.ms", "ms");
    ("engine.execute.ms", "ms");
    ("engine.execute.mw", "mw");
    ("plan.nodes_scanned", "count");
    ("plan.index_probes", "count");
    ("plan.index_hit_ratio", "ratio");
    ("plan.hash_join_probes", "count");
    ("plan.lim_ticks", "count");
    ("rel.load.ms", "ms");
    ("xml.print.ms", "ms");
    ("xml.print.mw", "mw");
    ("xml.print.mb_s", "MB/s");
    ("par.busy_frac", "ratio");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.top_heap_mw", "mw");
    ("trace.unaccounted_frac", "ratio");
    ("trace.overhead_frac", "ratio");
  ]
