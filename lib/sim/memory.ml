(* Sparse paged memory for the simulator.

   Pages are allocated lazily; words are little-endian.  The aligned
   8-byte fast path covers almost all traffic (stack and array cells are
   8-aligned); the byte loop handles the rest, including cross-page
   accesses.

   Every access first consults a small direct-mapped memo of recently
   used pages, so the hot path is two array loads and a compare instead
   of a hash-table lookup.  The page table stays the single owner of the
   pages; the memo only holds references to them. *)

let page_bits = 12
let page_size = 1 lsl page_bits

let memo_bits = 8
let memo_slots = 1 lsl memo_bits

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  memo_keys : int array; (* page number cached in each slot, -1 = empty *)
  memo_pages : Bytes.t array;
}

let create () =
  {
    pages = Hashtbl.create 256;
    memo_keys = Array.make memo_slots (-1);
    memo_pages = Array.make memo_slots Bytes.empty;
  }

(* Fibonacci hashing: the top bits of the page number times an odd
   constant near 2^62/phi.  It spreads consecutive pages and the
   layout's region bases, which are all multiples of 64 pages, across
   the slots; a plain mask of the page number would put the first page
   of every region in slot 0. *)
let slot_of_key key = (key * 0x278DDE6E5FD29F05) lsr (Sys.int_size - memo_bits)

let page_miss m key slot =
  let p =
    match Hashtbl.find_opt m.pages key with
    | Some p -> p
    | None ->
        let p = Bytes.make page_size '\x00' in
        Hashtbl.add m.pages key p;
        p
  in
  Array.unsafe_set m.memo_keys slot key;
  Array.unsafe_set m.memo_pages slot p;
  p

let page m a =
  let key = a lsr page_bits in
  let slot = slot_of_key key in
  if Array.unsafe_get m.memo_keys slot = key then Array.unsafe_get m.memo_pages slot
  else page_miss m key slot

let read8 m a = Char.code (Bytes.unsafe_get (page m a) (a land (page_size - 1)))

let write8 m a v =
  Bytes.unsafe_set (page m a) (a land (page_size - 1)) (Char.unsafe_chr (v land 0xff))

let read64 m a =
  let off = a land (page_size - 1) in
  if a land 7 = 0 && off <= page_size - 8 then
    Int64.to_int (Bytes.get_int64_le (page m a) off)
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read8 m (a + i)))
    done;
    Int64.to_int !v
  end

let write64 m a v =
  let off = a land (page_size - 1) in
  if a land 7 = 0 && off <= page_size - 8 then
    Bytes.set_int64_le (page m a) off (Int64.of_int v)
  else begin
    let v64 = Int64.of_int v in
    for i = 0 to 7 do
      write8 m (a + i) (Int64.to_int (Int64.shift_right_logical v64 (8 * i)))
    done
  end

(* Copy [b] to [addr], one blit per page touched. *)
let load_bytes m addr (b : Bytes.t) =
  let n = Bytes.length b in
  let i = ref 0 in
  while !i < n do
    let a = addr + !i in
    let off = a land (page_size - 1) in
    let len = min (n - !i) (page_size - off) in
    Bytes.blit b !i (page m a) off len;
    i := !i + len
  done
