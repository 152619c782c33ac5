(* The shared zero-copy I/O core used by the BELF serializer, the profile
   file formats and the re-encode path.

   Integers are little-endian; strings are length-prefixed.  Three layers:

   - [slice]: an immutable window into a backing string.  Sub-slicing is
     bounds-checked and never copies; bytes are materialized only when a
     consumer asks for them ([slice_to_string] / [slice_to_bytes]).
   - [reader]: a bounds-checked cursor over a slice.  Multi-byte fields
     are read batched ([String.get_int64_le] / [get_int32_le]), not one
     byte at a time.  Reading past the window raises [Corrupt].
   - [writer]: an arena-style buffer over [Bytes] with amortized-doubling
     growth, [reserve]/[patch] for back-patched headers, and [append] so
     independently-filled arenas join by one block copy. *)

exception Corrupt of string

(* ---- slices ---- *)

type slice = { sl_base : string; sl_off : int; sl_len : int }

let slice_of_string s = { sl_base = s; sl_off = 0; sl_len = String.length s }

let slice_len sl = sl.sl_len

let sub_slice sl pos len =
  if pos < 0 || len < 0 || pos + len > sl.sl_len then
    raise (Corrupt "slice out of bounds");
  { sl_base = sl.sl_base; sl_off = sl.sl_off + pos; sl_len = len }

let slice_get sl i =
  if i < 0 || i >= sl.sl_len then raise (Corrupt "slice index out of bounds");
  String.unsafe_get sl.sl_base (sl.sl_off + i)

let slice_to_string sl = String.sub sl.sl_base sl.sl_off sl.sl_len

let slice_to_bytes sl =
  let b = Bytes.create sl.sl_len in
  Bytes.blit_string sl.sl_base sl.sl_off b 0 sl.sl_len;
  b

(* ---- reader: a cursor over a slice ---- *)

type reader = {
  data : string;
  limit : int;
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

let reader_of_slice sl =
  {
    data = sl.sl_base;
    limit = sl.sl_off + sl.sl_len;
    pos = sl.sl_off;
    memo0 = "";
    memo1 = "";
  }

let need r n = if r.pos + n > r.limit then raise (Corrupt "truncated input")

let r_rem r = r.limit - r.pos

let r_skip r n =
  need r n;
  r.pos <- r.pos + n

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

(* Length-prefixed payload as a slice: no copy, just a window. *)
let r_slice r =
  let n = r_u32 r in
  need r n;
  let sl = { sl_base = r.data; sl_off = r.pos; sl_len = n } in
  r.pos <- r.pos + n;
  sl

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

(* ---- writer: an arena with reserve/patch ---- *)

type writer = { mutable buf : Bytes.t; mutable len : int }

let writer ?(capacity = 4096) () = { buf = Bytes.create (max 16 capacity); len = 0 }

let length w = w.len

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

let add_subbytes w b off n =
  ensure w n;
  Bytes.blit b off w.buf w.len n;
  w.len <- w.len + n

let str w s =
  u32 w (String.length s);
  add_string w s

let bytes w by =
  u32 w (Bytes.length by);
  add_subbytes w by 0 (Bytes.length by)

let list w f xs =
  u32 w (List.length xs);
  List.iter (f w) xs

(* Reserve [n] zeroed bytes and return their offset for a later patch —
   the length-prefix idiom without a second serialization pass. *)
let reserve w n =
  ensure w n;
  let off = w.len in
  Bytes.fill w.buf off n '\x00';
  w.len <- w.len + n;
  off

let patch_u8 w off v = Bytes.set w.buf off (Char.chr (v land 0xff))
let patch_u32 w off v = Bytes.set_int32_le w.buf off (Int32.of_int v)
let patch_i64 w off v = Bytes.set_int64_le w.buf off (Int64.of_int v)

(* Join another arena's contents with one block copy. *)
let append w src = add_subbytes w src.buf 0 src.len

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

let to_bytes w = Bytes.sub w.buf 0 w.len

(* Write [contents w] into [dst] at [off] without the intermediate
   string. *)
let blit w dst off = Bytes.blit w.buf 0 dst off w.len
