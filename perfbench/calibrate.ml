(* The calibration task: a fixed amount of work that uses no code of
   the program under test. The harness (main.ml) runs it beside every
   timed invocation and scales the time metrics by it, because the
   host's speed drifts by tens of percent over minutes as other
   tenants share its cores, caches and memory. A change to `clip`
   moves the invocations and not this task, so it shows in full.

   Its work resembles clip's: it prints a deptdb-shaped document into
   a buffer, splits it into tags and texts, allocating a string for
   each, and counts every distinct string in a hash table. It is its
   own executable, linked with no library of the repository, so that
   not even their start-up code runs in it.

   [calibrate.exe N] does the work N times at once on N domains, for
   workloads whose invocations run on N domains. *)

let work () =
  let st = Random.State.make [| 0; 4 |] in
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf "<source>";
  for i = 0 to 499 do
    Printf.bprintf buf "<dept><dname>dept-%d</dname>" i;
    for j = 1 to 20 do
      Printf.bprintf buf "<Proj pid=\"%d\"><pname>project-%d</pname></Proj>"
        ((i * 20) + j) (Random.State.int st 17)
    done;
    for k = 0 to 59 do
      Printf.bprintf buf
        "<regEmp pid=\"%d\"><ename>emp-%d-%d</ename><sal>%d</sal></regEmp>"
        ((i * 20) + 1 + Random.State.int st 20)
        i k
        (8000 + Random.State.int st 8000)
    done;
    Buffer.add_string buf "</dept>"
  done;
  Buffer.add_string buf "</source>";
  let s = Buffer.contents buf in
  let n = String.length s in
  let tokens = ref [] in
  let i = ref 0 in
  while !i < n do
    let j =
      if s.[!i] = '<' then String.index_from s !i '>' + 1
      else String.index_from s !i '<'
    in
    tokens := String.sub s !i (j - !i) :: !tokens;
    i := j
  done;
  let counts = Hashtbl.create 1024 in
  List.iter
    (fun t ->
      Hashtbl.replace counts t
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts t)))
    !tokens;
  Printf.sprintf "%d bytes, %d tokens, %d distinct" n (List.length !tokens)
    (Hashtbl.length counts)

let () =
  let domains =
    if Array.length Sys.argv > 1 then max 1 (int_of_string Sys.argv.(1)) else 1
  in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  let mine = work () in
  List.iter (fun d -> print_endline (Domain.join d)) others;
  print_endline mine
