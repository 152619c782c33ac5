(** Machine registers of the BISA target: sixteen 64-bit general-purpose
    registers [r0..r13] plus the frame pointer [fp] (r14) and the stack
    pointer [sp] (r15).

    ABI: arguments in [r1..r4], result in [r0]; [r0..r7] are clobbered by
    calls, [r8..fp] are callee-saved.  These sets drive both the MiniC
    code generator and BOLT's register-reference queries. *)

type t = private int

val count : int

(** Raises [Invalid_argument] outside [0..15]. *)
val of_int : int -> t

val to_int : t -> int

val r0 : t
val r1 : t
val r2 : t
val r3 : t
val r4 : t
val r5 : t
val r6 : t
val r7 : t
val r8 : t
val r9 : t
val r10 : t
val r11 : t
val r12 : t
val r13 : t
val fp : t
val sp : t

(** Argument registers, in position order. *)
val args : t list

val caller_saved : t list
val callee_saved : t list

val name : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int
