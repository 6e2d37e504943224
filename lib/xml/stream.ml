(* The XML lexer: a pull-based (SAX-style) event scanner over an
   incremental byte feed, and the one implementation of every lexical
   rule in the library. [Parser] is [of_string] plus {!parse_result}.

   Scanning works on the byte window in place. A token is located by a
   tight loop over [win] (the next '<' for character data, the closing
   quote for an attribute value, the end of a name) and copied out with
   one [String.sub]; lookahead and closing tags are compared against
   the window byte by byte. [tbuf] is touched only when a token runs
   past the end of the window and has to be collected across a refill,
   so memory stays one chunk plus the longest pending token.

   Line and column are not tracked per byte. [line]/[bol] describe the
   first byte of the window; [pull] counts the newlines of the bytes it
   compacts away, and [here] counts the rest on demand when a
   diagnostic needs a span. Every error is raised at the cursor, so the
   span is always [here st].

   Two contracts are pinned by test/test_stream.ml against a
   test-only reference parser:

   - {e chunk-boundary independence}: the events, and the document
     built from them, do not depend on where the feed is cut;
   - {e diagnostic identity}: every failure carries the reference's
     CLIP-XML-* / CLIP-LIM-* code, message and absolute span. An
     oversized document reports CLIP-LIM-001 even when an early byte
     is garbage: before latching any other failure, a chunked feed
     drains and sizes the rest of the feed ([size_precedence]). *)

type event =
  | Start of { tag : string; attrs : (string * Atom.t) list }
  | Text of Atom.t
  | End of string

type phase = Prolog | Content | Epilog | Finished

type source = {
  refill : unit -> string option;
  mutable win : string; (* bytes [wpos, length win) are unconsumed *)
  mutable wpos : int;
  mutable base : int; (* global offset of win.[0] *)
  mutable at_eof : bool; (* the producer is exhausted *)
  mutable fed : int; (* total bytes accepted from the producer *)
  mutable line : int; (* line number of win.[0] *)
  mutable bol : int; (* global offset of the start of that line *)
  mutable depth : int; (* current element-nesting depth *)
  limits : Clip_diag.Limits.t;
  mutable phase : phase;
  mutable stack : string list; (* open elements, innermost first *)
  tbuf : Buffer.t; (* a token that spans a refill *)
  mutable run_start : int; (* the last scanned run, see [scan_run] *)
  mutable run_stop : int;
  names : string array; (* recently read names, by [name_slot] *)
  mutable queued : event option; (* recognised but undelivered *)
  mutable started : bool; (* the xml.parse fault point has fired *)
  mutable failed : Clip_diag.t list option; (* latched first failure *)
}

let pos st = st.base + st.wpos

let here st =
  let line = ref st.line and bol = ref st.bol in
  for i = 0 to st.wpos - 1 do
    if String.unsafe_get st.win i = '\n' then begin
      incr line;
      bol := st.base + i + 1
    end
  done;
  Clip_diag.span ~offset:(pos st) ~line:!line ~col:(pos st - !bol + 1) ()

let error_at ?(code = Clip_diag.Codes.xml_syntax) ?hints st message =
  Clip_diag.fail (Clip_diag.error ~span:(here st) ?hints ~code message)

let error st message = error_at st message

(* The size limit is reported at position 0 with the whole feed's
   size, as an up-front check of the complete input would. *)
let oversized_error ~total st =
  Clip_diag.error
    ~span:(Clip_diag.span ~offset:0 ~line:1 ~col:1 ())
    ~hints:[ "raise Limits.max_input_bytes to accept larger documents" ]
    ~code:Clip_diag.Codes.limit_input_bytes
    (Printf.sprintf "input is %d bytes, larger than the limit of %d" total
       st.limits.Clip_diag.Limits.max_input_bytes)

(* Consume the rest of the producer and return the total byte count of
   the whole feed. A producer failure while draining just ends the
   count early: the drain runs on paths that already hold a verdict. *)
let drain_total st =
  let total = ref st.fed in
  (try
     let rec drain () =
       match st.refill () with
       | None -> ()
       | Some chunk ->
         total := !total + String.length chunk;
         drain ()
     in
     drain ()
   with _ -> ());
  st.at_eof <- true;
  !total

let oversized st = Clip_diag.fail (oversized_error ~total:(drain_total st) st)

(* Pull the next non-empty chunk. The consumed prefix of the window is
   compacted away (its newlines counted into [line]/[bol] first), so
   memory is bounded by one chunk plus the unconsumed lookahead. *)
let rec pull st =
  if not st.at_eof then
    match st.refill () with
    | None -> st.at_eof <- true
    | Some "" -> pull st
    | Some chunk ->
      st.fed <- st.fed + String.length chunk;
      if st.fed > st.limits.Clip_diag.Limits.max_input_bytes then oversized st;
      for i = 0 to st.wpos - 1 do
        if String.unsafe_get st.win i = '\n' then begin
          st.line <- st.line + 1;
          st.bol <- st.base + i + 1
        end
      done;
      let keep = String.length st.win - st.wpos in
      if keep = 0 then st.win <- chunk
      else begin
        let b = Bytes.create (keep + String.length chunk) in
        Bytes.blit_string st.win st.wpos b 0 keep;
        Bytes.blit_string chunk 0 b keep (String.length chunk);
        st.win <- Bytes.unsafe_to_string b
      end;
      st.base <- st.base + st.wpos;
      st.wpos <- 0

let avail st = String.length st.win - st.wpos

let ensure st n =
  while avail st < n && not st.at_eof do
    pull st
  done

let eof st =
  if avail st = 0 then ensure st 1;
  avail st = 0

let peek st = if eof st then '\000' else String.unsafe_get st.win st.wpos

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* [String.trim]'s set: [is_space] plus form feed. *)
let is_trim_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

let skip_spaces st =
  while (not (eof st)) && is_space (String.unsafe_get st.win st.wpos) do
    st.wpos <- st.wpos + 1
  done

(* Does [s] occur in [win] at [i]? The caller checked the bounds. *)
let rec matches win i s k =
  k = String.length s
  || (String.unsafe_get win (i + k) = String.unsafe_get s k && matches win i s (k + 1))

let looking_at st s =
  let n = String.length s in
  if avail st < n then ensure st n;
  avail st >= n && matches st.win st.wpos s 0

let expect st s =
  if looking_at st s then st.wpos <- st.wpos + String.length s
  else error st (Printf.sprintf "expected %S" s)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* [is_name_char] as a table: one load per byte in the name loop. *)
let name_chars = String.init 256 (fun i -> if is_name_char (Char.chr i) then '1' else '0')

(* Run ends: the first index in [i, len) where the run stops, or [len]. *)
let rec name_end win (_ : char) i len =
  if i < len && String.unsafe_get name_chars (Char.code (String.unsafe_get win i)) = '1'
  then name_end win '\000' (i + 1) len
  else i

let rec byte_end win c i len =
  if i < len && String.unsafe_get win i <> c then byte_end win c (i + 1) len else i

let rec collect st run_end c =
  let len = String.length st.win in
  let e = run_end st.win c st.wpos len in
  Buffer.add_substring st.tbuf st.win st.wpos (e - st.wpos);
  st.wpos <- e;
  if e = len && not st.at_eof then begin
    pull st;
    collect st run_end c
  end

(* [scan_run st run_end c] consumes the run starting at the cursor and
   returns the string holding it: the run is [run_start, run_stop) of
   the result. In the common case that is the window itself, with no
   copy; a run reaching the end of the window may go on in the next
   chunk, so it is collected in [tbuf] across refills. *)
let scan_run st run_end c =
  let len = String.length st.win in
  let e = run_end st.win c st.wpos len in
  if e < len || st.at_eof then begin
    st.run_start <- st.wpos;
    st.run_stop <- e;
    st.wpos <- e;
    st.win
  end
  else begin
    Buffer.clear st.tbuf;
    collect st run_end c;
    st.run_start <- 0;
    st.run_stop <- Buffer.length st.tbuf;
    Buffer.contents st.tbuf
  end

let run_string st s =
  if st.run_start = 0 && st.run_stop = String.length s then s
  else String.sub s st.run_start (st.run_stop - st.run_start)

let rec name_slot s i e h =
  if i >= e then h land 255
  else name_slot s (i + 1) e ((h * 31) + Char.code (String.unsafe_get s i))

(* Tags and attribute names repeat: a name equal to the one cached in
   its slot is shared instead of copied out of the window again. *)
let parse_name st =
  if not (is_name_start (peek st)) then error st "expected a name";
  let s = scan_run st name_end '\000' in
  let a = st.run_start and e = st.run_stop in
  let slot = name_slot s a e 0 in
  let cached = Array.unsafe_get st.names slot in
  if String.length cached = e - a && matches s a cached 0 then cached
  else begin
    let name = String.sub s a (e - a) in
    Array.unsafe_set st.names slot name;
    name
  end

(* The first occurrence of [term] in [win] at or after [i], or -1. *)
let rec find_term win term i len =
  if i + String.length term > len then -1
  else if matches win i term 0 then i
  else find_term win term (i + 1) len

(* Consume up to and including the next [term], or fail with [message]
   at the end of input. With [keep], the bytes before [term] are
   appended to [tbuf]. *)
let rec until st term ~keep message =
  let n = String.length term in
  let len = String.length st.win in
  match find_term st.win term st.wpos len with
  | p when p >= 0 ->
    if keep then Buffer.add_substring st.tbuf st.win st.wpos (p - st.wpos);
    st.wpos <- p + n
  | _ when st.at_eof ->
    st.wpos <- len;
    error st message
  | _ ->
    (* The last [n - 1] bytes may start [term]: keep them for the next
       window. *)
    let safe = max st.wpos (len - n + 1) in
    if keep then Buffer.add_substring st.tbuf st.win st.wpos (safe - st.wpos);
    st.wpos <- safe;
    pull st;
    until st term ~keep message

let digit_value ~hex c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' when hex -> Char.code c - 87
  | 'A' .. 'F' when hex -> Char.code c - 55
  | _ -> -1

(* A character reference [ent] ("#65", "#x41", without '&' and ';'):
   [&#[0-9]+;] or [&#x[0-9a-fA-F]+;], naming an ASCII character other
   than NUL. *)
let char_ref st ent =
  let n = String.length ent in
  let hex = ent.[1] = 'x' || ent.[1] = 'X' in
  let first = if hex then 2 else 1 in
  let value = ref 0 and ok = ref (first < n) in
  for i = first to n - 1 do
    let d = digit_value ~hex ent.[i] in
    if d < 0 then ok := false
    else if !value < 128 then value := (!value * if hex then 16 else 10) + d
  done;
  if not !ok then error st ("malformed character reference &" ^ ent ^ ";")
  else if !value = 0 || !value >= 128 then
    error st ("unsupported character reference &" ^ ent ^ ";")
  else Char.chr !value

(* Decode the predefined entities and character references of [s]; a
   string without '&' is returned as is. *)
let decode_entities st s =
  match String.index_opt s '&' with
  | None -> s
  | Some first ->
    let n = String.length s in
    let buf = Buffer.create n in
    let rec go i = function
      | None -> Buffer.add_substring buf s i (n - i)
      | Some a ->
        Buffer.add_substring buf s i (a - i);
        (match String.index_from_opt s a ';' with
         | None -> error st "unterminated entity reference"
         | Some j ->
           (match String.sub s (a + 1) (j - a - 1) with
            | "lt" -> Buffer.add_char buf '<'
            | "gt" -> Buffer.add_char buf '>'
            | "amp" -> Buffer.add_char buf '&'
            | "quot" -> Buffer.add_char buf '"'
            | "apos" -> Buffer.add_char buf '\''
            | ent ->
              if String.length ent > 1 && ent.[0] = '#' then
                Buffer.add_char buf (char_ref st ent)
              else error st ("unknown entity &" ^ ent ^ ";"));
           go (j + 1) (String.index_from_opt s (j + 1) '&'))
    in
    go 0 (Some first);
    Buffer.contents buf

let parse_quoted st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then error st "expected a quoted value";
  st.wpos <- st.wpos + 1;
  let s = scan_run st byte_end quote in
  if eof st then error st "unterminated attribute value";
  let raw = run_string st s in
  st.wpos <- st.wpos + 1;
  decode_entities st raw

let skip_comment st =
  st.wpos <- st.wpos + 4;
  until st "-->" ~keep:false "unterminated comment"

let rec skip_doctype st depth =
  if eof st then error st "unterminated DOCTYPE"
  else
    match String.unsafe_get st.win st.wpos with
    | '>' when depth = 0 -> st.wpos <- st.wpos + 1
    | c ->
      st.wpos <- st.wpos + 1;
      skip_doctype st (match c with '[' -> depth + 1 | ']' -> depth - 1 | _ -> depth)

let rec skip_misc st =
  skip_spaces st;
  if looking_at st "<!--" then begin
    skip_comment st;
    skip_misc st
  end
  else if looking_at st "<!DOCTYPE" then begin
    (* to the matching '>', internal subsets in brackets included *)
    skip_doctype st 0;
    skip_misc st
  end
  else if looking_at st "<?" then begin
    until st "?>" ~keep:false "unterminated processing instruction";
    skip_misc st
  end

let parse_attrs st =
  let rec loop acc =
    skip_spaces st;
    let c = peek st in
    if c = '>' || c = '/' || eof st then List.rev acc
    else
      let name = parse_name st in
      if List.mem_assoc name acc then error st ("duplicate attribute " ^ name);
      skip_spaces st;
      expect st "=";
      skip_spaces st;
      let value = parse_quoted st in
      loop ((name, Atom.of_string value) :: acc)
  in
  loop []

(* The cursor is on the '<' opening an element. Depth is incremented
   and bounds-checked before the tag is read, and decremented when the
   element closes. *)
let start_element st =
  st.depth <- st.depth + 1;
  if st.depth > st.limits.Clip_diag.Limits.max_xml_depth then
    error_at st ~code:Clip_diag.Codes.limit_xml_depth
      ~hints:[ "raise Limits.max_xml_depth to accept deeper documents" ]
      (Printf.sprintf "element nesting exceeds the limit of %d"
         st.limits.Clip_diag.Limits.max_xml_depth);
  expect st "<";
  let tag = parse_name st in
  let attrs = parse_attrs st in
  if looking_at st "/>" then begin
    st.wpos <- st.wpos + 2;
    st.depth <- st.depth - 1;
    if st.stack == [] then st.phase <- Epilog;
    st.queued <- Some (End tag)
  end
  else begin
    expect st ">";
    st.stack <- tag :: st.stack;
    st.phase <- Content
  end;
  Start { tag; attrs }

(* The cursor is just past "</". The common case, the open tag followed
   by a non-name byte, is matched in the window without a copy. *)
let close_element st tag =
  let n = String.length tag in
  ensure st (n + 1);
  let a = avail st in
  if a >= n && matches st.win st.wpos tag 0
     && (a = n || not (is_name_char (String.unsafe_get st.win (st.wpos + n))))
  then begin
    st.wpos <- st.wpos + n;
    skip_spaces st;
    expect st ">"
  end
  else begin
    let closing = parse_name st in
    skip_spaces st;
    expect st ">";
    if not (String.equal closing tag) then
      error st
        (Printf.sprintf "mismatched closing tag: expected </%s>, found </%s>"
           tag closing)
  end;
  (match st.stack with _ :: rest -> st.stack <- rest | [] -> ());
  st.depth <- st.depth - 1;
  if st.stack == [] then st.phase <- Epilog;
  End tag

(* The cursor is on "<![CDATA[": the literal section, no entity
   decoding. *)
let cdata st =
  st.wpos <- st.wpos + 9;
  Buffer.clear st.tbuf;
  until st "]]>" ~keep:true "unterminated CDATA section";
  Text (Atom.String (Buffer.contents st.tbuf))

(* Is [s.[a, b)] whitespace only? *)
let rec all_space s a b = a >= b || (is_space (String.unsafe_get s a) && all_space s (a + 1) b)

let trimmed st s =
  let a = ref st.run_start and b = ref st.run_stop in
  while !a < !b && is_trim_space (String.unsafe_get s !a) do incr a done;
  while !b > !a && is_trim_space (String.unsafe_get s (!b - 1)) do decr b done;
  String.sub s !a (!b - !a)

(* The byte after the cursor, or NUL at the end of input. *)
let next_byte st =
  if avail st < 2 then ensure st 2;
  if avail st >= 2 then String.unsafe_get st.win (st.wpos + 1) else '\000'

let text st raw = Text (Atom.of_string (decode_entities st raw))

(* One step inside element [tag], the innermost open one. Character
   data runs to the next '<': a whitespace-only run yields no event,
   any other is trimmed, entity-decoded at its closing '<' and typed
   with [Atom.of_string]. *)
let rec content_step st tag =
  if eof st then error st ("unterminated element <" ^ tag ^ ">")
  else if String.unsafe_get st.win st.wpos <> '<' then begin
    let s = scan_run st byte_end '<' in
    if eof st then error st ("unterminated element <" ^ tag ^ ">");
    if all_space s st.run_start st.run_stop then content_step st tag
    else
      let raw = trimmed st s in
      if next_byte st = '!' && looking_at st "<![CDATA[" then begin
        (* A run followed by CDATA is decoded once the section has been
           consumed, as the reference does. *)
        let section = cdata st in
        let t = text st raw in
        st.queued <- Some section;
        t
      end
      else text st raw
  end
  else
    match next_byte st with
    | '/' ->
      st.wpos <- st.wpos + 2;
      close_element st tag
    | '!' when looking_at st "<!--" ->
      skip_comment st;
      content_step st tag
    | '!' when looking_at st "<![CDATA[" -> cdata st
    | _ -> start_element st

(* The raw event step: raises [Clip_diag.Fail]; callers guard it. *)
let step st =
  match st.queued with
  | Some e ->
    st.queued <- None;
    Some e
  | None ->
    (match st.phase with
     | Finished -> None
     | Prolog ->
       skip_misc st;
       if eof st then error st "empty document";
       Some (start_element st)
     | Content ->
       (match st.stack with
        | tag :: _ -> Some (content_step st tag)
        | [] -> assert false)
     | Epilog ->
       skip_misc st;
       if not (eof st) then error st "trailing content after the root element";
       st.phase <- Finished;
       None)

(* Keep diagnostics chunking-independent: an up-front check of the
   whole input reports CLIP-LIM-001 on an oversized document even when
   an early byte is garbage. A chunked feed may recognise the garbage
   before the running total reaches the limit, so before latching any
   other failure it drains and sizes the rest of the feed and lets the
   limit verdict take precedence. Injected faults escape unchanged:
   their boundary is before any byte is consumed. *)
let size_precedence st ds =
  let keeps d =
    let code = d.Clip_diag.code in
    String.equal code Clip_diag.Codes.limit_input_bytes
    || (String.length code >= 8 && String.equal (String.sub code 0 8) "CLIP-FLT")
  in
  if List.exists keeps ds then ds
  else
    let total = drain_total st in
    if total > st.limits.Clip_diag.Limits.max_input_bytes then
      [ oversized_error ~total st ]
    else ds

(* Run [f] under one guard: the [xml.parse] fault fires before the
   first byte is consumed, and the first failure latches. *)
let guarded st f =
  match st.failed with
  | Some ds -> Error ds
  | None ->
    (match
       Clip_diag.guard (fun () ->
           if not st.started then begin
             st.started <- true;
             Clip_fault.hit Clip_fault.Site.xml_parse
           end;
           f st)
     with
     | Ok _ as ok -> ok
     | Error ds ->
       let ds = size_precedence st ds in
       st.failed <- Some ds;
       Error ds)

let next_result st = guarded st step

let make ?(limits = Clip_diag.Limits.default) refill =
  {
    refill;
    win = "";
    wpos = 0;
    base = 0;
    at_eof = false;
    fed = 0;
    line = 1;
    bol = 0;
    depth = 0;
    limits;
    phase = Prolog;
    stack = [];
    tbuf = Buffer.create 64;
    run_start = 0;
    run_stop = 0;
    names = Array.make 256 "";
    queued = None;
    started = false;
    failed = None;
  }

let of_chunks ?limits refill = make ?limits refill

let of_string ?limits s =
  (* One whole-string chunk: the first refill sees the full length, so
     the size limit is checked before any byte is scanned. *)
  let sent = ref false in
  make ?limits (fun () ->
      if !sent then None
      else begin
        sent := true;
        Some s
      end)

let of_channel ?limits ?(chunk_bytes = 65536) ic =
  let chunk_bytes = max 1 chunk_bytes in
  let buf = Bytes.create chunk_bytes in
  make ?limits (fun () ->
      let n = input ic buf 0 chunk_bytes in
      if n = 0 then None else Some (Bytes.sub_string buf 0 n))

(* The next event inside an open element. *)
let next_inside st =
  match st.queued, st.stack with
  | Some e, _ ->
    st.queued <- None;
    e
  | None, tag :: _ -> content_step st tag
  | None, [] -> (match step st with Some e -> e | None -> error st "empty document")

(* The event tree builder, driving the raw step directly. *)
let rec build st tag attrs acc =
  match next_inside st with
  | Text a -> build st tag attrs (Node.text a :: acc)
  | Start { tag = t; attrs = a } ->
    let child = build st t a [] in
    build st tag attrs (child :: acc)
  | End _ -> Node.elem ~attrs tag (List.rev acc)

let subtree_result st ~tag ~attrs = guarded st (fun st -> build st tag attrs [])

let parse_result st =
  guarded st (fun st ->
      match step st with
      | Some (Start { tag; attrs }) ->
        let root = build st tag attrs [] in
        (match step st with None -> root | Some _ -> assert false)
      | Some (Text _ | End _) | None -> assert false)
