(* One flat JSON object per line; "t" is virtual time in integer
   nanoseconds (exact round trip), "s" resolves the interned label for
   kinds that carry one.  Hand-rolled — the toolchain has no JSON
   library, and the schema is flat ints plus escape-free short
   strings.

   Each sink builds its lines in a buffer it owns and hands each line
   to the channel in one [output] call: no format interpretation and
   no allocation per event.  The bytes are exactly those of
   {"t":%d,"n":%d,"k":"%s"[,"s":"%s"],"a":%d,"b":%d,...,"f":%d}\n. *)

(* Decimal, as [%d] prints it.  The digits are written right to left
   into [digits] (20 bytes hold [min_int]) from the non-positive twin of
   [n], which exists even for [min_int]. *)
let add_int b digits n =
  let i = ref (Bytes.length digits) in
  let x = ref (if n < 0 then n else -n) in
  let more = ref true in
  while !more do
    decr i;
    Bytes.unsafe_set digits !i (Char.unsafe_chr (Char.code '0' - (!x mod 10)));
    x := !x / 10;
    more := !x <> 0
  done;
  if n < 0 then begin
    decr i;
    Bytes.unsafe_set digits !i '-'
  end;
  Buffer.add_subbytes b digits !i (Bytes.length digits - !i)

let write bus b digits oc (ev : Event.t) =
  Buffer.clear b;
  Buffer.add_string b "{\"t\":";
  add_int b digits (ev.time :> int);
  Buffer.add_string b ",\"n\":";
  add_int b digits ev.node;
  Buffer.add_string b ",\"k\":\"";
  Buffer.add_string b (Event.kind_name ev.kind);
  if Event.has_label ev.kind && ev.a >= 0 then begin
    Buffer.add_string b "\",\"s\":\"";
    Buffer.add_string b (Bus.name bus ev.a)
  end;
  Buffer.add_string b "\",\"a\":";
  add_int b digits ev.a;
  Buffer.add_string b ",\"b\":";
  add_int b digits ev.b;
  Buffer.add_string b ",\"c\":";
  add_int b digits ev.c;
  Buffer.add_string b ",\"d\":";
  add_int b digits ev.d;
  Buffer.add_string b ",\"e\":";
  add_int b digits ev.e;
  Buffer.add_string b ",\"f\":";
  add_int b digits ev.f;
  Buffer.add_string b "}\n";
  Buffer.output_buffer oc b

let sink bus oc : Bus.sink =
  let b = Buffer.create 256 in
  let digits = Bytes.create 20 in
  fun ev -> write bus b digits oc ev

(* ---- Minimal flat-object parser ---------------------------------------- *)

type value = Int of int | Float of float | Str of string

exception Malformed

let parse_line s : (string * value) list option =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do incr pos done
  in
  let expect c = if peek () = c then incr pos else raise Malformed in
  let quoted () =
    expect '"';
    let b = Buffer.create 8 in
    let rec go () =
      if !pos >= n then raise Malformed
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            if !pos + 1 >= n then raise Malformed;
            Buffer.add_char b s.[!pos + 1];
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let number_value () =
    let start = !pos in
    if peek () = '-' then incr pos;
    let digits = ref 0 in
    let is_float = ref false in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' ->
          incr digits;
          true
      | '.' | 'e' | 'E' | '+' | '-' ->
          is_float := true;
          true
      | _ -> false
    do
      incr pos
    done;
    if !digits = 0 then raise Malformed;
    let lit = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string lit) else Int (int_of_string lit)
  in
  try
    skip_ws ();
    expect '{';
    let fields = ref [] in
    let rec members () =
      skip_ws ();
      if peek () = '}' then incr pos
      else begin
        let key = quoted () in
        skip_ws ();
        expect ':';
        skip_ws ();
        let v = if peek () = '"' then Str (quoted ()) else number_value () in
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | ',' ->
            incr pos;
            members ()
        | '}' -> incr pos
        | _ -> raise Malformed
      end
    in
    members ();
    Some (List.rev !fields)
  with Malformed | Failure _ -> None
