(* The end-to-end benchmark: `clip run` on one workload, in a closed
   loop (one invocation at a time) for a fixed number of seconds.

     main.exe --clip CLIP --work DIR --workload NAME --seed N
              --seconds S --trace 0|1

   Before timing, it writes the workload's seeded inputs under DIR,
   computes the reference output with the XQuery interpreter
   (--backend xquery --plan naive) and validates it against the
   mapping's target schema, checks the mapping against the paper's
   printed output on the Sec. I-A instance, and times the fixed cost of
   an invocation (setup_s). With --trace 0 it then times the untraced
   binary and reports the end-to-end metrics; with --trace 1 it
   alternates untraced invocations with traced in-process runs
   (Traced, each in a child process) and reports the per-layer metrics.
   Every output is compared with the reference. The last line of
   standard output is one JSON object; the lines above it are for
   people. Exit code 2 means the benchmark could not run at all. *)

module Engine = Clip_core.Engine

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let sorted xs = List.sort Float.compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples above it, by
   nearest rank; [None] below twenty samples. *)
let high_percentile xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 20 then None
  else
    let p = 100 * (n - 10) / n in
    Some (p, a.(max 0 ((p * n / 100) - 1)))

let describe name unit xs =
  Printf.printf "%-12s median %.6g %s  min %.6g  max %.6g  n=%d%s\n" name
    (median xs) unit
    (List.fold_left Float.min infinity xs)
    (List.fold_left Float.max neg_infinity xs)
    (List.length xs)
    (match high_percentile xs with
     | None -> "  (too few samples for a tail percentile)"
     | Some (p, v) -> Printf.sprintf "  p%d %.6g %s" p v unit)

let json ~correct ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (k, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" k v
              unit)
          metrics))

(* The calibration task's time on a quiet host, on one domain and on
   two: the 2-vCPU Intel Xeon (2.0 GHz) VM the benchmark was defined
   on. A run's time metrics are scaled by this / the median time of the
   calibrations run between its invocations, on as many domains as the
   workload's invocations use, so they read as seconds on that host in
   a quiet phase, and the host's drift over minutes cancels out. *)
let reference_s ~domains = if domains <= 1 then 0.12 else 0.18

(* Invocations during which the virtual machine's host took the CPUs
   away are left out of the medians: those whose steal time, with that
   of the calibration they are paired with, is above both 5% of their
   wall time and the run's median steal share. So at least half of the
   invocations are always kept, and a run on a host that steals all the
   time keeps its calmer half rather than everything. Steal time is not
   the program's: it comes and goes with the host's other tenants. *)
let undisturbed what (rs : (Proc.result * Proc.result) list) =
  let share ((r : Proc.result), (c : Proc.result)) =
    (r.stolen_s +. c.stolen_s) /. Float.max (r.wall_s +. c.wall_s) 1e-9
  in
  let limit = Float.max 0.05 (median (List.map share rs)) in
  let calm = List.filter (fun r -> share r <= limit) rs in
  Printf.printf "%s invocations: %d, %d left out for steal time\n" what
    (List.length rs)
    (List.length rs - List.length calm);
  calm

(* --- the reference ------------------------------------------------------ *)

(* The output `clip run --backend xquery --plan naive` prints for each
   input, computed in-process; every output is also checked against the
   target schema. *)
let reference (m : Clip_core.Mapping.t) texts =
  List.map
    (fun text ->
      match Clip_xml.Parser.parse_string_result text with
      | Error ds -> die "input does not parse: %s" (Clip_diag.render_list ds)
      | Ok src -> (
          match
            Engine.run_result ~backend:`Xquery ~plan:`Naive ~mode:`Whole m src
          with
          | Error ds -> die "reference run failed: %s" (Clip_diag.render_list ds)
          | Ok out ->
            (match Clip_schema.Validate.check m.target out with
             | [] -> ()
             | v :: _ ->
               die "reference output violates the target schema: %s"
                 (Clip_schema.Validate.violation_to_string v));
            Clip_xml.Printer.to_pretty_string out))
    texts

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* How many documents of a run's output differ from the reference: the
   output is compared segment by segment at the reference's offsets, so
   a document missing or changed counts, and so does every one after a
   length change. *)
let failed_docs ~reference out =
  let len = String.length out in
  let _, bad =
    List.fold_left
      (fun (off, bad) seg ->
        let n = String.length seg in
        let ok = off + n <= len && String.sub out off n = seg in
        (off + n, if ok then bad else bad + 1))
      (0, 0) reference
  in
  bad

let () =
  let clip = ref "" and work = ref "" and workload = ref "" in
  let seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let calibrator = ref "" and traced_child = ref false in
  Arg.parse
    [
      ("--clip", Arg.Set_string clip, "PATH the clip binary");
      ("--calibrator", Arg.Set_string calibrator, "PATH the calibration task");
      ("--work", Arg.Set_string work, "DIR scratch directory for inputs and outputs");
      ("--workload", Arg.Set_string workload, "NAME the workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--traced-child", Arg.Set traced_child, " one traced run (internal)");
    ]
    (fun a -> die "unexpected argument %s" a)
    "main.exe --clip CLIP --work DIR --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
      die "unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all))
  in
  if !work = "" then die "--work is required";
  let dir = Filename.concat !work w.name in
  if !traced_child then begin
    Traced.run w ~work:dir;
    exit 0
  end;
  if not (Sys.file_exists !clip) then die "no clip binary at %S" !clip;
  if not (Sys.file_exists !calibrator) then
    die "no calibration task at %S" !calibrator;
  if not (Sys.file_exists (Workload.mapping_path w)) then
    die "no mapping at %S (run from the repository root)" (Workload.mapping_path w);
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let spawner = Proc.spawner () in
  at_exit (fun () -> Proc.stop spawner);
  mkdir_p dir;
  let m =
    match Clip_core.Dsl.parse_result (read_file (Workload.mapping_path w)) with
    | Ok m -> m
    | Error ds -> die "mapping: %s" (Clip_diag.render_list ds)
  in
  Printf.printf "perfbench: workload %s, seed %d, %d s, trace %d\n" w.name !seed
    !seconds !trace;
  (* Inputs. *)
  let texts = Workload.inputs w ~seed:!seed in
  let paths = List.map (Filename.concat dir) (Workload.input_names w) in
  List.iter2 write_file paths texts;
  let in_bytes = List.fold_left (fun n t -> n + String.length t) 0 texts in
  Printf.printf "input: %d document(s), %d bytes, md5 %s\n" (List.length texts)
    in_bytes
    (Digest.to_hex (Digest.string (String.concat "" texts)));
  (* The reference, outside the timed window. *)
  let ref_segs = reference m texts in
  let ref_digest = Digest.string (String.concat "" ref_segs) in
  Printf.printf
    "reference: xquery/naive, valid against the target schema, %d bytes, md5 %s\n"
    (List.fold_left (fun n s -> n + String.length s) 0 ref_segs)
    (Digest.to_hex ref_digest);
  let out_file = Filename.concat dir "stdout" in
  let err_file = Filename.concat dir "stderr" in
  let clip_run inputs =
    Proc.spawn spawner !clip
      (("run" :: Workload.mapping_path w :: Workload.flags w)
       @ List.concat_map (fun p -> [ "-i"; p ]) inputs)
      ~stdout:out_file ~stderr:err_file
  in
  (* Sanity: the paper's Sec. I-A instance through the binary, compared
     with the output printed in the paper. *)
  let sanity_ok =
    match w.figure with
    | None ->
      print_endline "sanity: no paper output for this mapping (skipped)";
      true
    | Some fig ->
      let sc =
        List.find
          (fun (s : Clip_scenarios.Figures.t) -> s.name = fig)
          Clip_scenarios.Figures.all
      in
      let path = Filename.concat dir "sec1a.xml" in
      write_file path (Clip_xml.Printer.to_string Clip_scenarios.Deptdb.instance);
      let r = clip_run [ path ] in
      let ok =
        r.code = 0
        &&
        match
          (Clip_xml.Parser.parse_string_result (read_file out_file), sc.expected)
        with
        | Ok out, Some expected ->
          if sc.ordered then Clip_xml.Node.equal out expected
          else Clip_xml.Node.equal_unordered out expected
        | _ -> false
      in
      Printf.printf "sanity: %s on the Sec. I-A instance %s the paper's output\n"
        w.mapping
        (if ok then "matches" else "DOES NOT match");
      ok
  in
  (* setup_s: the fixed cost of an invocation, over a minimal document.
     The set-up invocations are spread over the measuring time (three
     after each timed invocation), so that their median does not hang
     on the machine's state during one short burst. The first one is
     not timed. *)
  let minimal = Filename.concat dir "minimal.xml" in
  write_file minimal (Workload.minimal_input w);
  let minimal_digest =
    Digest.string (String.concat "" (reference m [ Workload.minimal_input w ]))
  in
  let setup_ok = ref true in
  let setup () =
    let r = clip_run [ minimal ] in
    if not (r.code = 0 && Digest.file out_file = minimal_digest) then begin
      print_endline "FAILED set-up invocation";
      setup_ok := false
    end;
    r
  in
  ignore (setup ());
  (* One run of the calibration task (calibrate.ml), a child process
     like the invocations it is paired with. *)
  let cal_file = Filename.concat dir "calibration" in
  let calibrate () =
    let c =
      Proc.spawn spawner !calibrator [ string_of_int w.jobs ] ~stdout:cal_file
        ~stderr:err_file
    in
    if c.code <> 0 then die "calibration task failed: exit %d" c.code;
    c
  in
  (* One timed invocation of the workload's command: its measurement
     and how many of its documents failed. *)
  let units = List.length paths in
  let invoke () =
    let r = clip_run paths in
    let bad =
      if r.code = 0 && (not r.timed_out) && Digest.file out_file = ref_digest
      then 0
      else
        max 1
          (if units = 1 then 1
           else failed_docs ~reference:ref_segs (read_file out_file))
    in
    if bad > 0 then
      Printf.printf "FAILED invocation: exit %d%s, %d document(s) wrong\n" r.code
        (if r.timed_out then " (timed out)" else "")
        bad;
    (r, bad)
  in
  let attempted = ref 0 and failed = ref 0 in
  let count bad =
    attempted := !attempted + units;
    failed := !failed + bad
  in
  (* The closed loop: [step] again and again, at least [min] times, and
     then while another step as long as the last one fits in the
     measuring time. *)
  let deadline = Proc.now () +. float_of_int !seconds in
  let closed_loop ~min step =
    let rec go n =
      let t0 = Proc.now () in
      step ();
      let t1 = Proc.now () in
      if n + 1 < min || t1 +. (t1 -. t0) <= deadline then go (n + 1)
    in
    go 0
  in
  (* Warm-up: one invocation of the workload's command, checked but not
     timed, so that the first timed one does not pay for a cold page
     cache or CPU caches. It counts against the measuring time. *)
  count (snd (invoke ()));
  let metrics =
    if !trace = 0 then begin
      (* Each step: a timed invocation, a calibration, and three set-up
         invocations. *)
      let samples = ref [] and setups = ref [] in
      closed_loop ~min:3 (fun () ->
          let r, bad = invoke () in
          count bad;
          let c = calibrate () in
          samples := (r, c) :: !samples;
          for _ = 1 to 3 do
            setups := (setup (), c) :: !setups
          done);
      let samples = undisturbed "timed" !samples in
      let setups = undisturbed "set-up" !setups in
      let col f = List.map f samples in
      let wall = col (fun ((r : Proc.result), _) -> r.wall_s) in
      let cpu = col (fun ((r : Proc.result), _) -> r.cpu_s) in
      let mem = col (fun ((r : Proc.result), _) -> r.peak_mem_mb) in
      let setup_walls = List.map (fun ((r : Proc.result), _) -> r.wall_s) setups in
      let cal_wall = col (fun (_, (c : Proc.result)) -> c.wall_s) in
      describe "setup_s" "s" setup_walls;
      describe "wall_s" "s" wall;
      describe "cpu_s" "s" cpu;
      describe "peak_mem_mb" "MB" mem;
      describe "calibration" "s" cal_wall;
      (* Times at the host's reference speed: each run's median, scaled
         by how much slower than on a quiet host the calibration ran
         over the same run. *)
      let reference_s = reference_s ~domains:w.jobs in
      let factor = reference_s /. median cal_wall in
      Printf.printf "scaled to the reference speed (calibration %g s): x%.6g\n"
        reference_s factor;
      let wall = List.map (fun t -> t *. factor) wall in
      let cpu = List.map (fun t -> t *. factor) cpu in
      let setup_walls = List.map (fun t -> t *. factor) setup_walls in
      [
        ("wall_s", median wall);
        ("cpu_s", median cpu);
        ("peak_mem_mb", median mem);
        ("setup_s", median setup_walls);
      ]
    end
    else begin
      (* Untraced invocations alternate with traced runs, so both see
         the same machine state; their ratio is the trace overhead. *)
      let untraced = ref [] and runs = ref [] in
      let trace_file = Filename.concat dir "trace" in
      closed_loop ~min:2 (fun () ->
        let r, bad = invoke () in
        count bad;
        untraced := r.wall_s :: !untraced;
        let c =
          Proc.spawn spawner Sys.executable_name
            [ "--traced-child"; "--workload"; w.name; "--work"; !work ]
            ~stdout:trace_file ~stderr:err_file
        in
        let kv =
          String.split_on_char '\n' (read_file trace_file)
          |> List.filter_map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ k; v ] -> Some (k, v)
                 | _ -> None)
        in
        let ok =
          c.code = 0
          && List.assoc_opt "digest" kv = Some (Digest.to_hex ref_digest)
        in
        if not ok then
          Printf.printf "FAILED traced run: exit %d\n%s" c.code
            (read_file err_file);
        count (if ok then 0 else units);
        if ok then
          runs :=
            List.filter_map
              (fun (k, v) ->
                if k = "digest" then None else Some (k, float_of_string v))
              kv
            :: !runs);
      let med k = median (List.map (List.assoc k) !runs) in
      let overhead = (med "traced_wall_s" /. median !untraced) -. 1. in
      Printf.printf
        "traced runs: %d (median wall %.6g s), untraced invocations: %d \
         (median wall %.6g s)\n"
        (List.length !runs) (med "traced_wall_s") (List.length !untraced)
        (median !untraced);
      List.map
        (fun (k, _) -> (k, if k = "trace.overhead_frac" then overhead else med k))
        Workload.per_layer
    end
  in
  let names = if !trace = 0 then Workload.end_to_end else Workload.per_layer in
  (* A metric no successful run measured reads 0; [failed] already
     marks the result incorrect. *)
  let metrics =
    List.map
      (fun (k, v) ->
        (k, List.assoc k names, if Float.is_finite v then v else 0.))
      metrics
  in
  if !trace = 1 then
    List.iter
      (fun (k, unit, v) -> Printf.printf "  %-24s %14.6g %s\n" k v unit)
      metrics;
  Printf.printf "failed_frac: %d of %d %s = %g\n" !failed !attempted
    (if units = 1 then "invocation(s)" else "document(s)")
    (float_of_int !failed /. float_of_int !attempted);
  let correct = sanity_ok && !setup_ok && !failed = 0 in
  json ~correct ~attempted:!attempted ~failed:!failed metrics
