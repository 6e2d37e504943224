(* One traced in-process run of a workload. It makes the calls
   bin/clip.ml makes for `clip run`, timing each call into a layer's
   public functions from outside the library, and reads the [compile]
   and [execute] spans and the counters the engine already records
   through its Clip_run context. Layers a workload's path does not
   reach are timed as separate, labelled standalone calls on the same
   input, after the traced run.

   It runs in a fresh child process per iteration, so the GC figures
   describe this run alone. It prints one "<metric> <value>" line per
   per-layer metric, then "traced_wall_s" and the output digest. *)

module Engine = Clip_core.Engine

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let alloc_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

(* [timed f] — f's result, its wall seconds and the words it allocated.
   Domains a call spawns and joins fold their allocation into the
   caller's figures when they terminate. *)
let timed f =
  let w0 = alloc_words () in
  let t0 = Proc.now () in
  let r = f () in
  let dt = Proc.now () -. t0 in
  (r, dt, alloc_words () -. w0)

(* Read a whole file the way bin/clip.ml does. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let span_s tracer name =
  List.fold_left
    (fun acc (s : Clip_obs.Trace.span) ->
      if s.sname = name then acc +. s.sdur else acc)
    0. (Clip_obs.Trace.spans tracer)

let diag_fail what ds = fail "%s: %s" what (Clip_diag.render_list ds)

(* What the evaluation of one document cost, filled in by its task. *)
type task = {
  mutable compile_s : float;
  mutable execute_s : float;
  mutable execute_mw : float;
  mutable print_s : float;
  mutable print_mw : float;
  mutable out_bytes : int;
  mutable task_s : float;
}

let new_task () =
  {
    compile_s = 0.;
    execute_s = 0.;
    execute_mw = 0.;
    print_s = 0.;
    print_mw = 0.;
    out_bytes = 0;
    task_s = 0.;
  }

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let ms s = s *. 1000.
let mw w = w /. 1e6
let mb_s bytes s = if s > 0. then float_of_int bytes /. s /. 1e6 else 0.

let run (w : Workload.t) ~work =
  let backend = List.assoc w.backend Engine.backend_names in
  let paths = List.map (Filename.concat work) (Workload.input_names w) in
  let counters = Clip_obs.Counters.create () in
  let read_s = ref 0. in
  let read path =
    let s, dt, _ = timed (fun () -> read_file path) in
    read_s := !read_s +. dt;
    s
  in
  let gc0 = Gc.quick_stat () in
  let t_start = Proc.now () in
  let m, load_s, _ =
    let src = read (Workload.mapping_path w) in
    timed (fun () ->
        match Clip_core.Dsl.parse_result src with
        | Ok m -> m
        | Error ds -> diag_fail "mapping" ds)
  in
  (* The tree path parses every input up front and evaluates one task
     per document through Clip_par.map_results; the stream path hands
     the engine a channel. Both return the input texts, the parsed
     trees, the outputs, the task records, the calling domain's layer
     seconds, the parse cost and par.busy_frac. *)
  let texts, trees, outputs, tasks, layer_s, (parse_s, parse_mw), busy =
    if not w.stream then begin
      let parse_s = ref 0. and parse_mw = ref 0. in
      let texts = List.map read paths in
      let trees =
        List.map
          (fun text ->
            let r, dt, dw =
              timed (fun () -> Clip_xml.Parser.parse_string_result text)
            in
            parse_s := !parse_s +. dt;
            parse_mw := !parse_mw +. dw;
            match r with Ok n -> n | Error ds -> diag_fail "input" ds)
          texts
      in
      let tasks = Array.init (List.length trees) (fun _ -> new_task ()) in
      (* As in bin/clip.ml: one context per task. Each task gets its own
         tracer, created on the domain that runs it. *)
      let evaluate ~obs (i, source) =
        let t0 = Proc.now () in
        let tracer = Clip_obs.Trace.create ~now:Proc.now () in
        let ctx = Clip_run.create ?counters:obs ~tracer () in
        let r, _, exec_mw =
          timed (fun () ->
              Engine.run_result ~ctx ~backend ~plan:`Auto ~repr:`Tree
                ~mode:`Whole ~jobs:w.jobs m source)
        in
        match r with
        | Error ds -> Error ds
        | Ok out ->
          let s, print_s, print_mw =
            timed (fun () -> Clip_xml.Printer.to_pretty_string out)
          in
          let t = tasks.(i) in
          t.compile_s <- span_s tracer "compile";
          t.execute_s <- span_s tracer "execute";
          t.execute_mw <- exec_mw;
          t.print_s <- print_s;
          t.print_mw <- print_mw;
          t.out_bytes <- String.length s;
          t.task_s <- Proc.now () -. t0;
          Ok s
      in
      let results, par_s, _ =
        timed (fun () ->
            Clip_par.map_results ~jobs:w.jobs ~obs:counters evaluate
              (List.mapi (fun i t -> (i, t)) trees))
      in
      let outputs =
        List.map (function Ok s -> s | Error ds -> diag_fail "run" ds) results
      in
      let tasks = Array.to_list tasks in
      let jobs = max 1 (min w.jobs (List.length trees)) in
      (* Work on other domains is off the calling domain's path: there
         the parallel section as a whole is the layer span. *)
      let engine_s =
        if jobs = 1 then
          sum (fun t -> t.compile_s +. t.execute_s +. t.print_s) tasks
        else par_s
      in
      ( texts,
        trees,
        outputs,
        tasks,
        !read_s +. load_s +. !parse_s +. engine_s,
        (!parse_s, !parse_mw),
        sum (fun t -> t.task_s) tasks /. (float_of_int jobs *. par_s) )
    end
    else begin
      (* The stream path never reads its input whole: the engine lexes
         the channel chunk by chunk inside its [execute] span. The
         tracer is safe with any --jobs here, as the engine records
         spans on the calling domain only. *)
      let path = List.hd paths in
      let tracer = Clip_obs.Trace.create ~now:Proc.now () in
      let ctx = Clip_run.create ~counters ~tracer () in
      let cpu0 = Unix.times () in
      let r, run_s, exec_mw =
        timed (fun () ->
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                Engine.run_stream_result ~ctx ~backend ~plan:`Auto ~repr:`Tree
                  ~mode:`Sharded ~jobs:w.jobs m
                  (Clip_xml.Stream.of_channel ic)))
      in
      let cpu1 = Unix.times () in
      let out = match r with Ok n -> n | Error ds -> diag_fail "run" ds in
      let s, print_s, print_mw =
        timed (fun () -> Clip_xml.Printer.to_pretty_string out)
      in
      let t =
        {
          compile_s = span_s tracer "compile";
          execute_s = span_s tracer "execute";
          execute_mw = exec_mw;
          print_s;
          print_mw;
          out_bytes = String.length s;
          task_s = run_s;
        }
      in
      (* No task wrapper reaches the engine's shard pipeline, so its
         busy share is the process CPU over the run's domain-seconds. *)
      let cpu =
        cpu1.Unix.tms_utime +. cpu1.tms_stime -. cpu0.Unix.tms_utime
        -. cpu0.tms_stime
      in
      ( [],
        [],
        [ s ],
        [ t ],
        !read_s +. load_s +. t.compile_s +. t.execute_s +. print_s,
        (0., 0.),
        cpu /. (float_of_int w.jobs *. run_s) )
    end
  in
  let traced_s = Proc.now () -. t_start in
  let gc1 = Gc.quick_stat () in
  (* Standalone on the stream path: the whole-file read and tree parse
     it skips. *)
  let texts, (parse_s, parse_mw) =
    if not w.stream then (texts, (parse_s, parse_mw))
    else
      let text = read (List.hd paths) in
      let _, dt, dw =
        timed (fun () -> Clip_xml.Parser.parse_string_result text)
      in
      ([ text ], (dt, dw))
  in
  let io_read_s = !read_s in
  (* Standalone: cut every input at the mapping's shard unit when the
     mapping admits a streaming cut; otherwise only the decision is
     timed and no shard is cut. *)
  let shards, cut_s, cut_mw =
    timed (fun () ->
        match Clip_core.Compile.to_tgd_result m with
        | Error ds -> diag_fail "compile" ds
        | Ok tgd -> (
            match Clip_shard.plan ~source:m.source ~target:m.target tgd with
            | Clip_shard.Sharded cut when not cut.Clip_shard.needs_prologue ->
              List.fold_left
                (fun n text ->
                  let c =
                    Clip_shard.cutter cut
                      ~budget_bytes:Engine.default_shard_bytes
                      (Clip_xml.Stream.of_string text)
                  in
                  let rec loop n =
                    match Clip_shard.next_shard c with
                    | Ok (Clip_shard.Shard _ | Clip_shard.Fallback_doc _) ->
                      loop (n + 1)
                    | Ok Clip_shard.Exhausted -> n
                    | Error ds -> diag_fail "shard" ds
                  in
                  loop n)
                0 texts
            | _ -> 0))
  in
  (* Standalone: the rel backend's per-document load — the columnar
     document and the relational store — when the source has the
     relational shape; otherwise only the shape check is timed. *)
  let _, rel_s, _ =
    timed (fun () ->
        match Clip_rel.Shape.of_schema m.source with
        | Error _ -> ()
        | Ok shape ->
          List.iter
            (fun n ->
              ignore (Clip_rel.Store.build shape (Clip_xml.Doc.of_node n)))
            trees)
  in
  let in_bytes = List.fold_left (fun n t -> n + String.length t) 0 texts in
  let out_bytes = List.fold_left (fun n t -> n + t.out_bytes) 0 tasks in
  let print_s = sum (fun t -> t.print_s) tasks in
  let c = counters in
  let metrics =
    [
      ("io.read.ms", ms io_read_s);
      ("xml.parse.ms", ms parse_s);
      ("xml.parse.mw", mw parse_mw);
      ("xml.parse.mb_s", mb_s in_bytes parse_s);
      ("shard.cut.ms", ms cut_s);
      ("shard.cut.mw", mw cut_mw);
      ("shard.count", float_of_int shards);
      ("core.load.ms", ms load_s);
      ("engine.compile.ms", ms (sum (fun t -> t.compile_s) tasks));
      ("engine.execute.ms", ms (sum (fun t -> t.execute_s) tasks));
      ("engine.execute.mw", mw (sum (fun t -> t.execute_mw) tasks));
      ("plan.nodes_scanned", float_of_int c.nodes_scanned);
      ("plan.index_probes", float_of_int c.index_probes);
      ( "plan.index_hit_ratio",
        if c.index_probes = 0 then 0.
        else float_of_int c.index_hits /. float_of_int c.index_probes );
      ("plan.hash_join_probes", float_of_int c.hash_join_probes);
      ("plan.lim_ticks", float_of_int c.lim_ticks);
      ("rel.load.ms", ms rel_s);
      ("xml.print.ms", ms print_s);
      ("xml.print.mw", mw (sum (fun t -> t.print_mw) tasks));
      ("xml.print.mb_s", mb_s out_bytes print_s);
      ("par.busy_frac", busy);
      ( "gc.minor_collections",
        float_of_int (gc1.minor_collections - gc0.minor_collections) );
      ( "gc.major_collections",
        float_of_int (gc1.major_collections - gc0.major_collections) );
      ("gc.top_heap_mw", mw (float_of_int gc1.top_heap_words));
      ("trace.unaccounted_frac", 1. -. (layer_s /. traced_s));
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "%s %.17g\n" k v) metrics;
  Printf.printf "traced_wall_s %.17g\n" traced_s;
  Printf.printf "digest %s\n"
    (Digest.to_hex (Digest.string (String.concat "" outputs)))
