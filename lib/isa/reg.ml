(* Machine registers of the BISA target.

   Sixteen general-purpose 64-bit registers, r0..r15.  The ABI fixes r15 as
   the stack pointer and r14 as the frame pointer.  Values are represented
   as ints in [0, 15]; the private alias keeps arbitrary ints out. *)

type t = int

let count = 16

let of_int n =
  if n < 0 || n >= count then invalid_arg (Printf.sprintf "Reg.of_int %d" n);
  n

let to_int r = r

let r0 = 0
let r1 = 1
let r2 = 2
let r3 = 3
let r4 = 4
let r5 = 5
let r6 = 6
let r7 = 7
let r8 = 8
let r9 = 9
let r10 = 10
let r11 = 11
let r12 = 12
let r13 = 13
let fp = 14
let sp = 15

(* ABI sets.  Arguments are passed in r1..r4, the result comes back in r0.
   r0..r7 are clobbered by calls; r8..r14 survive them. *)

let args = [ r1; r2; r3; r4 ]
let caller_saved = [ r0; r1; r2; r3; r4; r5; r6; r7 ]
let callee_saved = [ r8; r9; r10; r11; r12; r13; fp ]

let name r =
  match r with
  | 14 -> "fp"
  | 15 -> "sp"
  | n -> "r" ^ string_of_int n

let pp ppf r = Fmt.string ppf (name r)

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = compare a b
