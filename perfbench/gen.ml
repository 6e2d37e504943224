(* Seeded input generators. Each writes XML text directly (never through
   the library's printer), byte-for-byte deterministic per seed, so the
   program under test receives only files. *)

let state seed salt = Random.State.make [| seed; salt |]

(* A deptdb document (the paper's Sec. I-A source schema): [depts]
   departments, each with [projs] projects and [emps] employees. Project
   ids are unique in the document ([first_dept] offsets them, so batch
   documents do not share ids) and every employee works on a project of
   its own department, so per-department and global pid joins both give
   output linear in the input. Project names repeat across departments
   (17 distinct names), which gives Fig. 7's grouping real groups. *)
let deptdb buf st ~first_dept ~depts ~projs ~emps =
  Buffer.add_string buf "<source>";
  for i = first_dept to first_dept + depts - 1 do
    Printf.bprintf buf "<dept><dname>dept-%d</dname>" i;
    for j = 1 to projs do
      Printf.bprintf buf "<Proj pid=\"%d\"><pname>project-%d</pname></Proj>"
        ((i * projs) + j) (Random.State.int st 17)
    done;
    for k = 0 to emps - 1 do
      Printf.bprintf buf
        "<regEmp pid=\"%d\"><ename>emp-%d-%d</ename><sal>%d</sal></regEmp>"
        ((i * projs) + 1 + Random.State.int st projs)
        i k
        (8000 + Random.State.int st 8000)
    done;
    Buffer.add_string buf "</dept>"
  done;
  Buffer.add_string buf "</source>"

(* The large deptdb document: 1000 depts x 20 projs x 60 emps, ~5.1 MB. *)
let deptdb_large ~seed =
  let buf = Buffer.create (6 lsl 20) in
  deptdb buf (state seed 1) ~first_dept:0 ~depts:1000 ~projs:20 ~emps:60;
  Buffer.contents buf

(* [n] small deptdb documents of one department each, ~4.3 KB apiece. *)
let deptdb_batch ~seed ~n =
  let st = state seed 2 in
  List.init n (fun d ->
      let buf = Buffer.create 4600 in
      deptdb buf st ~first_dept:d ~depts:1 ~projs:20 ~emps:47;
      Buffer.contents buf)

(* A relational-shaped company/grant database: [companies] companies
   and ten grants per company, whose recipients are drawn from five
   times as many ids as there are companies — so one grant in five
   joins. *)
let grants ~seed ~companies =
  let st = state seed 3 in
  let buf = Buffer.create (1 lsl 19) in
  Buffer.add_string buf "<db>";
  for c = 1 to companies do
    Printf.bprintf buf "<company cid=\"%d\"><cname>C%d</cname></company>" c c
  done;
  for g = 1 to 10 * companies do
    Printf.bprintf buf
      "<grant gid=\"%d\" recipient=\"%d\"><amount>%d</amount></grant>" g
      (1 + Random.State.int st (5 * companies))
      (10 * (1 + Random.State.int st 100_000))
  done;
  Buffer.add_string buf "</db>";
  Buffer.contents buf

(* The smallest documents the workloads' mappings do real work on: the
   fixed cost every invocation pays is timed over these. *)
let deptdb_minimal =
  "<source><dept><dname>d</dname><Proj pid=\"1\"><pname>p</pname></Proj>\
   <regEmp pid=\"1\"><ename>e</ename><sal>12000</sal></regEmp></dept></source>"

let grants_minimal =
  "<db><company cid=\"1\"><cname>C</cname></company>\
   <grant gid=\"1\" recipient=\"1\"><amount>10</amount></grant></db>"
