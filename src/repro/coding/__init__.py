"""Codes: GF(2^m)/BCH, Gray, 3-ON-2 relatives, smart/permutation/enumerative, block codecs."""
