(* The shared I/O core used by the BELF serializer and the profile file
   formats.

   Integers are little-endian; strings are length-prefixed.  Two layers:

   - [reader]: a bounds-checked cursor over a string.  Multi-byte fields
     are read batched ([String.get_int64_le] / [get_int32_le]), not one
     byte at a time.  Reading past the end raises [Corrupt].
   - [writer]: an arena-style buffer over [Bytes] with amortized-doubling
     growth. *)

exception Corrupt of string

(* ---- reader: a cursor over a string ---- *)

type reader = {
  data : string;
  limit : int; (* [String.length data], kept: computing it reads the
                  string's last word on every bounds check *)
  mutable pos : int;
  (* two-slot memo of recently materialized strings: containers repeat
     short strings heavily (every symbol names its section, every
     line-table entry names its file — real DWARF uses file indices for
     the same reason), and the slots dedup them without a table.  Two
     slots, not one, so an alternating pattern (name, ".text", name,
     ".text", ...) still hits. *)
  mutable memo0 : string;
  mutable memo1 : string;
}

let reader data =
  { data; limit = String.length data; pos = 0; memo0 = ""; memo1 = "" }

let need r n = if r.pos + n > r.limit then raise (Corrupt "truncated input")

let r_u8 r =
  need r 1;
  let v = Char.code (String.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

(* Unsigned 32-bit value as a non-negative int (the host int is 63-bit). *)
let r_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.data r.pos) land 0xFFFF_FFFF in
  r.pos <- r.pos + 4;
  v

(* 64-bit field truncated to the host int ([Int64.to_int] drops the top
   bit). *)
let r_i64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

(* Strings materialize here — the symbol-table boundary.  A memo hit
   returns the already-materialized copy, so a container with a million
   ".text" / "file.c" repeats holds one string, not a million. *)
let r_str r =
  let n = r_u32 r in
  need r n;
  let span_eq s =
    String.length s = n
    &&
    let i = ref 0 in
    while
      !i < n && String.unsafe_get s !i = String.unsafe_get r.data (r.pos + !i)
    do
      incr i
    done;
    !i = n
  in
  let s =
    if span_eq r.memo0 then r.memo0
    else if span_eq r.memo1 then begin
      let s = r.memo1 in
      r.memo1 <- r.memo0;
      r.memo0 <- s;
      s
    end
    else begin
      let s = String.sub r.data r.pos n in
      r.memo1 <- r.memo0;
      r.memo0 <- s;
      s
    end
  in
  r.pos <- r.pos + n;
  s

let r_bytes r =
  let n = r_u32 r in
  need r n;
  let b = Bytes.create n in
  Bytes.blit_string r.data r.pos b 0 n;
  r.pos <- r.pos + n;
  b

let r_list r f =
  let n = r_u32 r in
  List.init n (fun _ -> f r)

(* ---- writer: a growable arena ---- *)

type writer = { mutable buf : Bytes.t; mutable len : int }

let writer ?(capacity = 4096) () = { buf = Bytes.create (max 16 capacity); len = 0 }

let ensure w n =
  let need_cap = w.len + n in
  if need_cap > Bytes.length w.buf then begin
    let cap = ref (2 * Bytes.length w.buf) in
    while !cap < need_cap do
      cap := 2 * !cap
    done;
    let b = Bytes.create !cap in
    Bytes.blit w.buf 0 b 0 w.len;
    w.buf <- b
  end

let u8 w v =
  ensure w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xff));
  w.len <- w.len + 1

let u32 w v =
  ensure w 4;
  Bytes.set_int32_le w.buf w.len (Int32.of_int v);
  w.len <- w.len + 4

let i64 w v =
  ensure w 8;
  Bytes.set_int64_le w.buf w.len (Int64.of_int v);
  w.len <- w.len + 8

let add_char w c =
  ensure w 1;
  Bytes.unsafe_set w.buf w.len c;
  w.len <- w.len + 1

let add_string w s =
  let n = String.length s in
  ensure w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let str w s =
  u32 w (String.length s);
  add_string w s

let bytes w by =
  let n = Bytes.length by in
  u32 w n;
  ensure w n;
  Bytes.blit by 0 w.buf w.len n;
  w.len <- w.len + n

let list w f xs =
  u32 w (List.length xs);
  List.iter (f w) xs

(* Text emitters for the line-oriented formats (fdata): hand-rolled
   decimal/hex so a million-record dump does not go through Printf. *)

let rec dec_digits v = if v < 10 then 1 else 1 + dec_digits (v / 10)

let dec w v =
  if v < 0 then
    if v = min_int then add_string w (string_of_int v)
    else begin
      u8 w (Char.code '-');
      let v = -v in
      let n = dec_digits v in
      ensure w n;
      let base = w.len in
      w.len <- w.len + n;
      let v = ref v in
      for i = n - 1 downto 0 do
        Bytes.unsafe_set w.buf (base + i) (Char.unsafe_chr (48 + (!v mod 10)));
        v := !v / 10
      done
    end
  else begin
    let n = dec_digits v in
    ensure w n;
    let base = w.len in
    w.len <- w.len + n;
    let v = ref v in
    for i = n - 1 downto 0 do
      Bytes.unsafe_set w.buf (base + i) (Char.unsafe_chr (48 + (!v mod 10)));
      v := !v / 10
    done
  end

(* Counts are int64; everything below [max_int] takes the int fast path. *)
let dec64 w (v : int64) =
  if v >= 0L && v <= Int64.of_int max_int then dec w (Int64.to_int v)
  else add_string w (Int64.to_string v)

let hex_digit = "0123456789abcdef"

(* Lowercase hex of a non-negative int, Printf "%x" compatible. *)
let hex w v =
  if v < 0 then add_string w (Printf.sprintf "%x" v)
  else begin
    let n = ref 1 and x = ref (v lsr 4) in
    while !x <> 0 do
      incr n;
      x := !x lsr 4
    done;
    let n = !n in
    ensure w n;
    let base = w.len in
    w.len <- w.len + n;
    let v = ref v in
    for i = n - 1 downto 0 do
      Bytes.unsafe_set w.buf (base + i) (String.unsafe_get hex_digit (!v land 0xf));
      v := !v lsr 4
    done
  end

let contents w = Bytes.sub_string w.buf 0 w.len
